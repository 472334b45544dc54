#include "daemon/server.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/export.hpp"

namespace kar::daemon {

namespace {

// Async-signal-safe shutdown latch (the handler only stores).
volatile std::sig_atomic_t g_signal_flag = 0;

void on_signal(int) { g_signal_flag = 1; }

/// Creates, binds and listens on a non-blocking 127.0.0.1 TCP socket;
/// returns the fd and fills `port_out` with the bound port (resolving an
/// ephemeral request). Non-blocking, so a thread that polls the listener
/// ready but loses the connection to another accept() does not block.
int listen_localhost(std::uint16_t port, std::uint16_t& port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("kard: socket(): ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("kard: cannot bind 127.0.0.1:") +
                             std::to_string(port) + ": " +
                             std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(std::string("kard: getsockname(): ") +
                             std::strerror(saved));
  }
  port_out = ntohs(bound.sin_port);
  return fd;
}

/// write() the whole buffer, retrying short writes. False on error.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Accept with a poll timeout so stop() and signals are honored promptly.
/// Returns the connection fd, -1 on timeout (or a connection another thread
/// took first), -2 on fatal listener error. The connection fd is blocking
/// (Linux accept() does not inherit O_NONBLOCK), as write_all() needs.
int accept_with_timeout(int listen_fd, int timeout_ms) {
  pollfd pfd{listen_fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return -1;
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ? -1 : -2;
  }
  return fd;
}

}  // namespace

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads must wake up
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

bool shutdown_signalled() { return g_signal_flag != 0; }

void run_stdin_loop(Kard& kard, int in_fd, std::ostream& out) {
  std::string buffer;
  char chunk[4096];
  bool eof = false;
  while (!eof && !shutdown_signalled() && !kard.shutdown_requested()) {
    pollfd pfd{in_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
    } else {
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string_view line(buffer.data() + start, nl - start);
      // Blank lines are a no-op so scripted sessions can be readable.
      if (!line.empty() &&
          line.find_first_not_of(" \t\r") != std::string_view::npos) {
        out << kard.execute_line(line) << '\n' << std::flush;
      }
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (kard.shutdown_requested()) break;
  }
  // A final unterminated line still counts at EOF.
  if (eof && !buffer.empty() &&
      buffer.find_first_not_of(" \t\r") != std::string::npos &&
      !kard.shutdown_requested()) {
    out << kard.execute_line(buffer) << '\n' << std::flush;
  }
}

SocketServer::SocketServer(Kard& kard, std::uint16_t port, std::size_t workers)
    : kard_(kard) {
  listen_fd_ = listen_localhost(port, port_);
  const std::size_t count = std::max<std::size_t>(workers, 1);
  try {
    workers_.reserve(count);
    for (std::size_t w = 0; w < count; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::stop() {
  if (stopping_.exchange(true)) return;
  for (std::thread& worker : workers_) worker.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void SocketServer::worker_loop() {
  while (!stopping_.load(std::memory_order_relaxed) && !shutdown_signalled() &&
         !kard_.shutdown_requested()) {
    const int fd = accept_with_timeout(listen_fd_, /*timeout_ms=*/100);
    if (fd == -1) continue;
    if (fd == -2) break;
    serve_connection(fd);
  }
}

void SocketServer::serve_connection(int fd) {
  FrameDecoder decoder;
  std::string payload;
  std::string framing_error;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_relaxed) &&
         !kard_.shutdown_requested()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    decoder.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    for (;;) {
      const FrameDecoder::Status status = decoder.next(payload, framing_error);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kFatal) {
        // Unrecoverable byte stream: one last structured error, then close.
        (void)write_all(fd,
                        encode_frame(error_response("framing", framing_error)));
        open = false;
        break;
      }
      std::string response = kard_.execute_line(payload);
      if (response.size() > kMaxFrameBytes) {
        response = error_response("oversized", "response exceeds frame cap");
      }
      if (!write_all(fd, encode_frame(response))) {
        open = false;
        break;
      }
    }
  }
  ::close(fd);
}

MetricsHttpServer::MetricsHttpServer(Kard& kard, std::uint16_t port)
    : kard_(kard) {
  listen_fd_ = listen_localhost(port, port_);
  server_ = std::thread([this] { serve_loop(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::stop() {
  if (stopping_.exchange(true)) return;
  if (server_.joinable()) server_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::serve_loop() {
  while (!stopping_.load(std::memory_order_relaxed) && !shutdown_signalled() &&
         !kard_.shutdown_requested()) {
    const int fd = accept_with_timeout(listen_fd_, /*timeout_ms=*/100);
    if (fd == -1) continue;
    if (fd == -2) break;
    // Read the request head (we answer every request the same way, so the
    // contents only need draining up to the blank line or a cap).
    std::string head;
    char chunk[1024];
    while (head.find("\r\n\r\n") == std::string::npos && head.size() < 8192) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, /*timeout_ms=*/500) <= 0) break;
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      head.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string response =
        obs::http_scrape_response(kard_.registry().snapshot());
    (void)write_all(fd, response);
    ::close(fd);
  }
}

}  // namespace kar::daemon
