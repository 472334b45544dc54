// Shared bench helpers: the machine provenance every committed BENCH
// record carries and a terminal sparkline. The paper's experiments
// themselves live in src/experiments/.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "experiments/tcp_experiment.hpp"
#include "runner/jsonl.hpp"

// The bench targets define KAR_BUILD_TYPE from CMAKE_BUILD_TYPE.
#ifndef KAR_BUILD_TYPE
#ifdef NDEBUG
#define KAR_BUILD_TYPE "unknown (NDEBUG)"
#else
#define KAR_BUILD_TYPE "unknown (assertions on)"
#endif
#endif

namespace kar::bench {

/// `git describe --always --dirty` of the working directory's checkout,
/// or "unknown" outside a git checkout.
inline std::string git_describe() {
  std::string out;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out += buffer;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Where a BENCH record was measured: hardware threads, build type,
/// compiler and source revision, as one JSON object. Every committed
/// record carries it under "provenance", so numbers from different
/// machines are never compared blind.
inline std::string provenance_json() {
#if defined(__clang__)
  const std::string compiler = "Clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "GNU " + std::to_string(__GNUC__) + '.' +
                               std::to_string(__GNUC_MINOR__) + '.' +
                               std::to_string(__GNUC_PATCHLEVEL__);
#else
  const std::string compiler = "unknown";
#endif
  runner::JsonObject o;
  o.field("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("build_type", KAR_BUILD_TYPE)
      .field("compiler", compiler)
      .field("git", git_describe());
  return o.str();
}

// perfbench/fig4_tcp.cpp builds its experiment from these paper
// parameters under their bench:: names.
using experiments::paper_link_params;
using experiments::reverse_for_experimental15;
using experiments::TcpExperiment;

/// Renders a one-line ASCII sparkline for a timeline (for terminal output).
inline std::string sparkline(const std::vector<double>& values, double max_value) {
  static constexpr const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  for (const double v : values) {
    const double frac = max_value > 0 ? std::min(v / max_value, 1.0) : 0.0;
    out += kLevels[static_cast<int>(frac * 7.0 + 0.5)];
  }
  return out;
}

}  // namespace kar::bench
