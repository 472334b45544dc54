// kard front ends: the transports that feed request lines into a Kard
// (docs/daemon.md §serving).
//
//   * run_stdin_loop() — newline-delimited request/response over stdio,
//     polled so SIGINT/SIGTERM and `shutdown` interrupt a blocked read.
//     This is what `kard --stdin` runs and the e2e smoke drives.
//   * SocketServer — a localhost TCP listener speaking the length-prefixed
//     frame protocol (daemon/protocol.hpp). Each of its worker threads
//     accepts one connection at a time from the shared listener, drains its
//     FrameDecoder, executes every payload line against the Kard, and
//     writes one response frame per request. A fatal framing violation
//     gets a final error frame and the connection closes; a malformed
//     *payload* only earns an error response and the connection lives on.
//   * MetricsHttpServer — a one-thread HTTP/1.0 scrape endpoint returning
//     the registry's Prometheus text (obs::http_scrape_response) for every
//     GET, so a Prometheus scraper can watch a live kard.
//
// Signal handling is process-global (install_signal_handlers), async-safe
// (the handler only stores a flag) and polled by every loop here.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <thread>
#include <vector>

#include "daemon/daemon.hpp"

namespace kar::daemon {

/// Installs SIGINT/SIGTERM handlers that record the signal for
/// shutdown_signalled(). Idempotent.
void install_signal_handlers();

/// True once SIGINT or SIGTERM arrived (after install_signal_handlers()).
[[nodiscard]] bool shutdown_signalled();

/// Serves newline-delimited requests from `in_fd` (normally STDIN_FILENO),
/// one JSON response line each on `out`. Returns when the input hits EOF, a
/// signal arrives, or the daemon accepts a `shutdown` request.
void run_stdin_loop(Kard& kard, int in_fd, std::ostream& out);

/// Length-prefixed frame server on a localhost TCP port.
class SocketServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts
  /// `workers` threads (0 counts as 1), each accepting and serving one
  /// connection at a time, so at most `workers` connections are served at
  /// once; later ones wait in the listen backlog. Throws
  /// std::runtime_error when the socket cannot be bound.
  SocketServer(Kard& kard, std::uint16_t port, std::size_t workers);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound port (the resolved one when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting, joins the workers (each leaves its connection within
  /// one 100 ms poll) and closes the listener. Idempotent.
  void stop();

 private:
  void worker_loop();
  void serve_connection(int fd);

  Kard& kard_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
};

/// Minimal HTTP/1.0 Prometheus scrape endpoint on 127.0.0.1.
class MetricsHttpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving. Throws
  /// std::runtime_error when the socket cannot be bound.
  MetricsHttpServer(Kard& kard, std::uint16_t port);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  void stop();

 private:
  void serve_loop();

  Kard& kard_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread server_;
};

}  // namespace kar::daemon
