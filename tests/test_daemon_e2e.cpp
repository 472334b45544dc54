// End-to-end kard smoke (the ISSUE's restart acceptance): spawns the real
// `kard --stdin` binary (path injected as KAR_KARD_BINARY at compile time),
// drives the line protocol over pipes, and proves
//   * the scripted session works: install / failed install / query /
//     link-down reconvergence / snapshot / graceful shutdown;
//   * a restart from the shutdown snapshot answers every query with the
//     byte-identical response line the pre-restart daemon gave;
//   * kill -TERM mid-churn still drains, snapshots, and exits cleanly, and
//     the restarted daemon's re-serialized store is byte-identical to the
//     file the dying daemon wrote;
//   * an unknown flag or an out-of-range port exits 2 instead of serving.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace kar {
namespace {

#ifndef KAR_KARD_BINARY
#error "KAR_KARD_BINARY must point at the kard executable"
#endif

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "kar_e2e_" + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A kard child process driven over stdin/stdout pipes.
class KardProc {
 public:
  explicit KardProc(const std::vector<std::string>& extra_args) {
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      ADD_FAILURE() << "pipe(): " << std::strerror(errno);
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<std::string> args = {KAR_KARD_BINARY, "--stdin"};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(KAR_KARD_BINARY, argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
  }

  ~KardProc() {
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    ASSERT_EQ(::write(in_fd_, data.data(), data.size()),
              static_cast<ssize_t>(data.size()))
        << "write to kard failed";
  }

  /// Reads one '\n'-terminated response (without the newline). Empty on
  /// EOF or a 30 s timeout.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      pollfd pfd{out_fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 30000);
      if (ready <= 0) return "";
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string request(const std::string& line) {
    send_line(line);
    return read_line();
  }

  /// Closes stdin (EOF) and waits; returns the exit code (-1 on abnormal
  /// termination).
  int wait_exit() {
    if (in_fd_ >= 0) {
      ::close(in_fd_);
      in_fd_ = -1;
    }
    int status = 0;
    if (::waitpid(pid_, &status, 0) != pid_) return -1;
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

bool is_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

TEST(DaemonE2E, ScriptedSessionWorks) {
  const std::string snap = temp_path("script.snap");
  std::remove(snap.c_str());
  KardProc kard({"--topology=rnp28", "--snapshot=" + snap});
  ASSERT_GT(kard.pid(), 0);

  EXPECT_NE(kard.request("ping").find("\"pong\":true"), std::string::npos);
  const std::string install = kard.request("install H-SW7 H-SW73");
  EXPECT_TRUE(is_ok(install)) << install;
  EXPECT_NE(install.find("\"key\":0"), std::string::npos);

  // A bad install fails with a structured error and no route slot.
  const std::string bad = kard.request("install H-SW7 NOPE");
  EXPECT_NE(bad.find("\"code\":\"unknown-node\""), std::string::npos) << bad;
  const std::string not_edge = kard.request("install SW7 SW73");
  EXPECT_NE(not_edge.find("\"code\":\"not-edge\""), std::string::npos);

  const std::string before = kard.request("query 0");
  EXPECT_TRUE(is_ok(before)) << before;
  EXPECT_NE(before.find("\"live\":true"), std::string::npos);

  // Fail a primary-path link: the route must reconverge onto a new path.
  EXPECT_TRUE(is_ok(kard.request("link-down SW7 SW13")));
  const std::string after = kard.request("query 0");
  EXPECT_TRUE(is_ok(after)) << after;
  EXPECT_NE(after, before) << "route did not reconverge";
  EXPECT_NE(after.find("\"live\":true"), std::string::npos);

  const std::string snapshot = kard.request("snapshot");
  EXPECT_TRUE(is_ok(snapshot)) << snapshot;
  EXPECT_FALSE(slurp(snap).empty());

  EXPECT_NE(kard.request("shutdown").find("\"shutting_down\":true"),
            std::string::npos);
  EXPECT_EQ(kard.wait_exit(), 0);
}

TEST(DaemonE2E, RestartFromSnapshotAnswersIdentically) {
  const std::string snap = temp_path("restart.snap");
  std::remove(snap.c_str());
  std::vector<std::string> queries;
  std::vector<std::string> answers;

  {
    KardProc kard({"--topology=rnp28", "--snapshot=" + snap});
    ASSERT_GT(kard.pid(), 0);
    ASSERT_TRUE(is_ok(kard.request("install H-SW7 H-SW73")));
    ASSERT_TRUE(is_ok(kard.request("install H-SW61 H-SW17")));
    ASSERT_TRUE(is_ok(kard.request("install H-SW7 H-SW107")));
    ASSERT_TRUE(is_ok(kard.request("link-down SW7 SW13")));
    ASSERT_TRUE(is_ok(kard.request("link-down SW61 SW67")));
    ASSERT_TRUE(is_ok(kard.request("withdraw 1")));
    for (int key = 0; key < 3; ++key) {
      queries.push_back("query " + std::to_string(key));
      answers.push_back(kard.request(queries.back()));
      ASSERT_FALSE(answers.back().empty());
    }
    // Graceful shutdown writes the snapshot.
    ASSERT_TRUE(is_ok(kard.request("shutdown")));
    ASSERT_EQ(kard.wait_exit(), 0);
  }

  const std::string written = slurp(snap);
  ASSERT_FALSE(written.empty());

  {
    KardProc kard({"--topology=rnp28", "--snapshot=" + snap, "--restore",
                   "--no-final-snapshot"});
    ASSERT_GT(kard.pid(), 0);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(kard.request(queries[i]), answers[i])
          << "restart changed the answer to: " << queries[i];
    }
    // Re-serializing the restored store reproduces the file byte for byte.
    const std::string second = temp_path("restart2.snap");
    std::remove(second.c_str());
    ASSERT_TRUE(is_ok(kard.request("snapshot " + second)));
    EXPECT_EQ(slurp(second), written) << "restore is not serialize^-1";
    ASSERT_TRUE(is_ok(kard.request("shutdown")));
    EXPECT_EQ(kard.wait_exit(), 0);
  }
}

TEST(DaemonE2E, SigtermMidChurnSnapshotsAndRestartsLossless) {
  const std::string snap = temp_path("sigterm.snap");
  std::remove(snap.c_str());
  {
    KardProc kard({"--topology=rnp28", "--snapshot=" + snap});
    ASSERT_GT(kard.pid(), 0);
    ASSERT_TRUE(is_ok(kard.request("install H-SW7 H-SW73")));
    ASSERT_TRUE(is_ok(kard.request("install H-SW61 H-SW17")));
    // Fire churn without waiting for responses, then SIGTERM mid-flight:
    // the daemon must drain in-flight epochs and snapshot on the way out.
    kard.send_line("link-down SW7 SW13");
    kard.send_line("install H-SW7 H-SW107");
    kard.send_line("link-up SW7 SW13");
    kard.send_line("link-down SW61 SW67");
    ::kill(kard.pid(), SIGTERM);
    EXPECT_EQ(kard.wait_exit(), 0) << "SIGTERM was not a graceful shutdown";
  }
  const std::string written = slurp(snap);
  ASSERT_FALSE(written.empty());

  {
    KardProc kard({"--topology=rnp28", "--snapshot=" + snap, "--restore",
                   "--no-final-snapshot"});
    ASSERT_GT(kard.pid(), 0);
    // The restored store re-serializes byte-identically — nothing the
    // dying daemon persisted was lost or reinterpreted.
    const std::string second = temp_path("sigterm2.snap");
    std::remove(second.c_str());
    ASSERT_TRUE(is_ok(kard.request("snapshot " + second)));
    EXPECT_EQ(slurp(second), written);
    // And it still serves: every key answers, and the store keeps working.
    const std::string stats = kard.request("stats");
    EXPECT_TRUE(is_ok(stats)) << stats;
    ASSERT_TRUE(is_ok(kard.request("shutdown")));
    EXPECT_EQ(kard.wait_exit(), 0);
  }
}

// Each of these would otherwise serve stdin until EOF and exit 0.
TEST(DaemonE2E, UnknownFlagsExitTwo) {
  for (const char* flag :
       {"--engine=full", "--shards=4", "--flush-intreval=0.01"}) {
    KardProc kard({"--topology=fig1", flag});
    ASSERT_GT(kard.pid(), 0);
    EXPECT_EQ(kard.wait_exit(), 2) << flag;
  }
}

TEST(DaemonE2E, OutOfRangePortsExitTwo) {
  for (const char* flag :
       {"--listen=65536", "--listen=-1", "--metrics-port=70000"}) {
    KardProc kard({"--topology=fig1", flag});
    ASSERT_GT(kard.pid(), 0);
    EXPECT_EQ(kard.wait_exit(), 2) << flag;
  }
}

}  // namespace
}  // namespace kar
