// kard — the KAR controller daemon (docs/daemon.md).
//
// Serves the line protocol over stdio (--stdin) and/or a localhost TCP
// socket (--listen), with an optional Prometheus scrape endpoint
// (--metrics-port). Mutations batch into atomically-versioned epochs; the
// store snapshots to --snapshot on shutdown and restores with --restore.
//
// Usage:
//   kard --topology=rnp28 --stdin
//   kard --topology=rnp28 --listen=7301 --metrics-port=9301
//        --snapshot=/var/lib/kard/store.snap --restore
//
// Flags:
//   --topology=NAME       fig1 | fig2 | rnp28 (default fig2)
//   --stdin               serve newline-delimited requests on stdio
//   --listen=PORT         serve framed requests on 127.0.0.1:PORT (0 = pick)
//   --metrics-port=PORT   Prometheus scrape endpoint on 127.0.0.1:PORT
//   --workers=N           socket worker threads, 1-256 (default 2)
//   --snapshot=PATH       snapshot file (written on shutdown; `snapshot` verb)
//   --restore             restore from --snapshot before serving
//   --no-final-snapshot   skip the shutdown snapshot
//   --flush-interval=S    group-commit latency bound (default 0.002): a
//                         batch closes when N mutations pend (--flush-max),
//                         when its oldest op has waited S, or when no
//                         request of any verb arrived for S/20
//   --flush-max=N         flush as soon as N mutations pend (default 4096)
//   --coalesce-window=S   hold + net link flaps for S seconds before
//                         reconverging (default 0 = per-batch only)
//   --compact-every=N     idle posting compaction every N epochs (default 64)
//   --no-host-edges       do not attach per-switch host edge nodes
//   --no-metrics          disable the metrics registry
//
// An unknown flag, a port outside 0-65535 or a worker count outside 1-256
// exits 2 before anything starts.
// stdout carries only protocol responses; diagnostics go to stderr.
#include <unistd.h>

#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "common/flags.hpp"
#include "daemon/daemon.hpp"
#include "daemon/server.hpp"

namespace {
/// Most socket worker threads kard starts (--workers).
constexpr std::int64_t kMaxWorkers = 256;
}  // namespace

int main(int argc, char** argv) {
  using namespace kar;
  try {
    const auto flags = common::Flags::parse_cli(argc, argv);
    daemon::KardConfig config;
    config.topology = flags.get_string("topology", "fig2");
    config.host_edges = flags.get_bool("host-edges", true);
    config.flush_interval_s = flags.get_double("flush-interval", 0.002);
    config.flush_max_ops =
        static_cast<std::size_t>(flags.get_int("flush-max", 4096));
    config.coalesce_window_s = flags.get_double("coalesce-window", 0.0);
    config.compact_every_epochs =
        static_cast<std::size_t>(flags.get_int("compact-every", 64));
    config.snapshot_path = flags.get_string("snapshot", "");
    config.restore = flags.get_bool("restore", false);
    config.snapshot_on_shutdown = flags.get_bool("final-snapshot", true);
    config.metrics = flags.get_bool("metrics", true);
    const bool use_stdin = flags.get_bool("stdin", false);
    const bool use_socket = flags.has("listen");
    const bool use_metrics_port = flags.has("metrics-port");
    const std::int64_t listen_port = flags.get_int("listen", 0);
    const std::int64_t metrics_port = flags.get_int("metrics-port", 0);
    const std::int64_t workers = flags.get_int("workers", 2);

    for (const auto& [name, port] :
         {std::pair{"listen", listen_port},
          std::pair{"metrics-port", metrics_port}}) {
      if (port < 0 || port > 65535) {
        std::cerr << "kard: --" << name << "=" << port
                  << " is not a port (0-65535)\n";
        return 2;
      }
    }
    if (workers < 1 || workers > kMaxWorkers) {
      std::cerr << "kard: --workers=" << workers << " is not in 1-"
                << kMaxWorkers << '\n';
      return 2;
    }
    if (common::report_unread(flags, "kard")) return 2;
    if (!use_stdin && !use_socket) {
      std::cerr << "kard: nothing to serve; pass --stdin and/or --listen=PORT\n";
      return 2;
    }

    daemon::install_signal_handlers();
    daemon::Kard kard(std::move(config));
    if (kard.config().restore) {
      std::cerr << "kard: restored " << kard.restored().routes << " routes ("
                << kard.restored().live << " live, "
                << kard.restored().withdrawn << " withdrawn) at version "
                << kard.restored().engine_version << '\n';
    }
    kard.start();

    std::unique_ptr<daemon::SocketServer> socket_server;
    if (use_socket) {
      socket_server = std::make_unique<daemon::SocketServer>(
          kard, static_cast<std::uint16_t>(listen_port),
          static_cast<std::size_t>(workers));
      std::cerr << "kard: listening on 127.0.0.1:" << socket_server->port()
                << '\n';
    }
    std::unique_ptr<daemon::MetricsHttpServer> metrics_server;
    if (use_metrics_port) {
      metrics_server = std::make_unique<daemon::MetricsHttpServer>(
          kard, static_cast<std::uint16_t>(metrics_port));
      std::cerr << "kard: metrics on http://127.0.0.1:"
                << metrics_server->port() << "/metrics\n";
    }

    std::cerr << "kard: serving " << kard.config().topology << '\n';
    if (use_stdin) {
      daemon::run_stdin_loop(kard, STDIN_FILENO, std::cout);
    } else {
      // Socket-only: park until a signal or a `shutdown` request.
      while (!daemon::shutdown_signalled() && !kard.shutdown_requested()) {
        ::usleep(100 * 1000);
      }
    }

    // Graceful drain: stop intake, flush in-flight epochs, snapshot.
    if (socket_server != nullptr) socket_server->stop();
    if (metrics_server != nullptr) metrics_server->stop();
    kard.stop();
    std::cerr << "kard: clean shutdown after " << kard.epochs_applied()
              << " epochs\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "kard: fatal: " << e.what() << '\n';
    return 1;
  }
}
