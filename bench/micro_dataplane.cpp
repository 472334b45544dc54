// Forwarding fast-path microbenchmark: proves the per-hop residue cost no
// longer scales with route-ID width.
//
// Three measurements, hand-timed like micro_obs so the harness itself adds
// nothing:
//   forwarding — the naive decision, KarSwitch::decide fed
//                KarSwitch::residue (per-hop BigUint::mod_u64 long
//                division), vs KarSwitch::forward (PreparedMod reduction,
//                through the route-ID residue memo for routes wider than
//                128 bits), on the fig2 (experimental15) and RNP-28
//                scenarios across all four deflection techniques, at the
//                native route widths, 96, 128 and ~512 bits. Each row also
//                times both residue paths forward() chooses between,
//                decide fed PreparedMod::reduce ("direct") and decide fed a
//                warm ResidueCache hit ("memo"), so the width gate's
//                break-even is measured, not assumed;
//   divmod     — multi-limb BigUint::divmod (Knuth Algorithm D, word
//                level) vs the retired bit-at-a-time divider
//                (testsupport::divmod_binary) on a route-ID-sized dividend;
//   reduce     — PreparedMod::reduce vs BigUint::mod_u64 for a single
//                uncached reduction (the cache-miss path).
//
// Each variant runs `--reps` repetitions of `--iters` operations. A
// forwarding row alternates naive and fast repetitions, so each pair sees
// the same host phase, and its speedup is the median of the per-pair
// naive/fast ratios (its ns/op columns are the medians of each side);
// every other variant reports the minimum over repetitions (the standard
// noise-floor estimator for micro-timings). Acceptance: every fast/naive
// forwarding pair and the divmod pair show speedup > `--min-speedup`
// (set 0 for smoke runs, where tiny loops are noise-dominated) — since
// the width gate landed, narrow routes are held to the same bar as wide
// ones: no committed scenario may regress below 1x. The committed record
// lives in BENCH_dataplane.json (regenerate with:
// micro_dataplane --out=BENCH_dataplane.json).
//
// Usage: micro_dataplane [--iters=2000000] [--divmod-iters=200000]
//                        [--reps=7] [--min-speedup=1] [--out=PATH]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dataplane/residue_cache.hpp"
#include "dataplane/switch.hpp"
#include "rns/biguint.hpp"
#include "rns/prepared_mod.hpp"
#include "routing/controller.hpp"
#include "runner/jsonl.hpp"
#include "support/divmod_reference.hpp"
#include "topology/builders.hpp"

namespace {

using kar::dataplane::DeflectionTechnique;
using kar::dataplane::KarSwitch;
using kar::dataplane::Packet;
using kar::rns::BigUint;

/// Keeps `value` observable so the optimizer cannot delete the loop.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Minimum over `reps` repetitions (noise-floor estimate).
template <typename Rep>
double best_of(std::size_t reps, Rep rep) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) best = std::min(best, rep());
  return best;
}

/// One scenario x technique forwarding measurement: the same decision
/// loop micro_obs times, once with the naive residue and once through
/// forward().
struct ForwardingCase {
  std::string scenario;
  std::string technique;
  std::string switch_name;
  std::size_t route_bits = 0;
  double naive_ns = 0.0;
  double fast_ns = 0.0;
  double speedup = 0.0;    ///< Median over pairs of naive / fast.
  double direct_ns = 0.0;  ///< decide(PreparedMod::reduce(R)).
  double memo_ns = 0.0;    ///< decide(ResidueCache hit), the memo's best case.
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// `iters` decisions of `decision(rng)`, timed.
template <typename Decision>
double timed_rep(Decision decision, kar::common::Rng& rng, std::size_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const auto made = decision(rng);
    keep(made);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

ForwardingCase run_forwarding_case(const kar::topo::Scenario& scenario,
                                   const BigUint& route_id,
                                   const std::string& switch_name,
                                   DeflectionTechnique technique,
                                   std::size_t iters, std::size_t reps) {
  ForwardingCase result;
  result.scenario = scenario.name;
  result.technique = std::string(kar::dataplane::to_string(technique));
  result.switch_name = switch_name;
  result.route_bits = route_id.bit_length();

  Packet packet;
  packet.kar.route_id = route_id;
  packet.dst_edge = scenario.topology.at(scenario.route.dst_edge);

  const auto ns_per_op = [iters](double seconds) {
    return seconds * 1e9 / static_cast<double>(iters);
  };
  const auto node = scenario.topology.at(switch_name);
  const auto measure = [&](auto decision) {
    kar::common::Rng rng{1};
    (void)timed_rep(decision, rng, iters / 10 + 1);  // warm-up
    return ns_per_op(
        best_of(reps, [&] { return timed_rep(decision, rng, iters); }));
  };
  {
    const KarSwitch naive_sw(scenario.topology, node, technique);
    const KarSwitch fast_sw(scenario.topology, node, technique);
    const auto naive = [&](kar::common::Rng& rng) {
      return naive_sw.decide(naive_sw.residue(packet.kar.route_id), 0, rng);
    };
    const auto fast = [&](kar::common::Rng& rng) {
      return fast_sw.forward(packet, 0, rng);
    };
    kar::common::Rng naive_rng{1};
    kar::common::Rng fast_rng{1};
    (void)timed_rep(naive, naive_rng, iters / 10 + 1);  // warm-up
    (void)timed_rep(fast, fast_rng, iters / 10 + 1);
    std::vector<double> naive_ns;
    std::vector<double> fast_ns;
    std::vector<double> ratios;
    for (std::size_t r = 0; r < reps; ++r) {
      naive_ns.push_back(ns_per_op(timed_rep(naive, naive_rng, iters)));
      fast_ns.push_back(ns_per_op(timed_rep(fast, fast_rng, iters)));
      ratios.push_back(naive_ns.back() / fast_ns.back());
    }
    result.naive_ns = median(std::move(naive_ns));
    result.fast_ns = median(std::move(fast_ns));
    result.speedup = median(std::move(ratios));
  }
  {
    const KarSwitch sw(scenario.topology, node, technique);
    const kar::rns::PreparedMod prepared(sw.switch_id());
    result.direct_ns = measure([&](kar::common::Rng& rng) {
      return sw.decide(prepared.reduce(packet.kar.route_id), 0, rng);
    });
    kar::dataplane::ResidueCache cache;
    result.memo_ns = measure([&](kar::common::Rng& rng) {
      return sw.decide(cache.lookup(packet.kar.route_id, prepared), 0, rng);
    });
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const auto iters = static_cast<std::size_t>(flags.get_int("iters", 2000000));
  const auto divmod_iters =
      static_cast<std::size_t>(flags.get_int("divmod-iters", 200000));
  const auto reps = static_cast<std::size_t>(flags.get_int("reps", 7));
  const double min_speedup = flags.get_double("min-speedup", 1.0);
  const std::string out_path = flags.get_string("out", "");
  if (kar::common::report_unread(flags, "micro_dataplane")) return 2;

  const std::vector<DeflectionTechnique> techniques = {
      DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
      DeflectionTechnique::kAnyValidPort,
      DeflectionTechnique::kNotInputPort};

  // Fully-protected route IDs: the widest operands each scenario produces,
  // i.e. the case where naive per-hop long division hurts the most.
  const auto fig2 = kar::topo::make_experimental15();
  const auto rnp28 = kar::topo::make_rnp28();
  kar::routing::Controller fig2_controller(fig2.topology);
  kar::routing::Controller rnp28_controller(rnp28.topology);
  const BigUint fig2_route =
      fig2_controller
          .encode_scenario(fig2.route, kar::topo::ProtectionLevel::kFull)
          .route_id;
  const BigUint rnp28_route =
      rnp28_controller
          .encode_scenario(rnp28.route, kar::topo::ProtectionLevel::kFull)
          .route_id;

  std::vector<ForwardingCase> cases;
  for (const auto technique : techniques) {
    cases.push_back(run_forwarding_case(fig2, fig2_route, "SW7", technique,
                                        iters, reps));
  }
  for (const auto technique : techniques) {
    cases.push_back(run_forwarding_case(rnp28, rnp28_route, "SW13", technique,
                                        iters, reps));
  }

  // Width-extended routes: adding a multiple of the benched switch's ID
  // leaves the residue at that switch unchanged while padding the route ID
  // to ~512 bits — the shape a many-hop fully-protected route takes as
  // topologies grow, and where the naive per-hop long division scales
  // linearly in limbs while the memoized fast path stays flat.
  const auto widen = [](const BigUint& route, std::uint64_t sw_id) {
    return (BigUint(sw_id) << 512) + route;
  };
  const std::uint64_t sw7_id = fig2.topology.switch_id(fig2.topology.at("SW7"));
  const std::uint64_t sw13_id =
      rnp28.topology.switch_id(rnp28.topology.at("SW13"));
  for (const auto technique : techniques) {
    auto c = run_forwarding_case(fig2, widen(fig2_route, sw7_id), "SW7",
                                 technique, iters, reps);
    c.scenario += "-wide";
    cases.push_back(c);
    c = run_forwarding_case(rnp28, widen(rnp28_route, sw13_id), "SW13",
                            technique, iters, reps);
    c.scenario += "-wide";
    cases.push_back(c);
  }

  // Break-even rows for the width gate: 96 and 128 bits, wider than a
  // machine word but still reduced directly (<= 128 bits). Each is the
  // route plus the smallest multiple of the switch ID that is
  // >= 2^(bits - 1): exactly `bits` wide, with the same residue.
  const auto widen_to = [](const BigUint& route, std::uint64_t sw_id,
                           std::size_t bits) {
    const BigUint floor = BigUint(1) << (bits - 1);
    const BigUint multiple = (floor / BigUint(sw_id) + BigUint(1)) * sw_id;
    return route + multiple;
  };
  for (const std::size_t bits : {96u, 128u}) {
    const std::string suffix = "-" + std::to_string(bits) + "b";
    for (const auto technique : techniques) {
      auto c = run_forwarding_case(fig2, widen_to(fig2_route, sw7_id, bits),
                                   "SW7", technique, iters, reps);
      c.scenario += suffix;
      cases.push_back(c);
      c = run_forwarding_case(rnp28, widen_to(rnp28_route, sw13_id, bits),
                              "SW13", technique, iters, reps);
      c.scenario += suffix;
      cases.push_back(c);
    }
  }

  // divmod: a route-ID-sized dividend over a multi-limb divisor (the
  // modulus product of the RNP-28 route's first two residue groups is the
  // realistic shape; squaring the route ID gives a wider numerator so the
  // quotient loop actually runs).
  const BigUint dividend = rnp28_route * rnp28_route + BigUint(12345);
  const BigUint divisor = fig2_route + BigUint(1);
  if (dividend.divmod(divisor).remainder !=
      kar::testsupport::divmod_binary(dividend, divisor).remainder) {
    std::cerr << "micro_dataplane: divmod disagrees with divmod_binary\n";
    return 2;
  }
  const auto ns_per = [](double seconds, std::size_t n) {
    return seconds * 1e9 / static_cast<double>(n);
  };
  const double knuth_ns = ns_per(
      best_of(reps,
              [&] {
                const auto start = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < divmod_iters; ++i) {
                  const auto dm = dividend.divmod(divisor);
                  keep(dm);
                }
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                    .count();
              }),
      divmod_iters);
  const double binary_ns = ns_per(
      best_of(reps,
              [&] {
                const auto start = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < divmod_iters; ++i) {
                  const auto dm =
                      kar::testsupport::divmod_binary(dividend, divisor);
                  keep(dm);
                }
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                    .count();
              }),
      divmod_iters);
  const double divmod_speedup = binary_ns / knuth_ns;

  // Single uncached reduction: PreparedMod::reduce vs BigUint::mod_u64
  // (the residue-cache miss path vs what the naive path runs every hop).
  const std::uint64_t switch_id =
      rnp28.topology.switch_id(rnp28.topology.at("SW13"));
  const kar::rns::PreparedMod prepared(switch_id);
  const double mod_u64_ns = ns_per(
      best_of(reps,
              [&] {
                const auto start = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < divmod_iters; ++i) {
                  const auto r = rnp28_route.mod_u64(switch_id);
                  keep(r);
                }
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                    .count();
              }),
      divmod_iters);
  const double reduce_ns = ns_per(
      best_of(reps,
              [&] {
                const auto start = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < divmod_iters; ++i) {
                  const auto r = prepared.reduce(rnp28_route);
                  keep(r);
                }
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                    .count();
              }),
      divmod_iters);
  const double reduce_speedup = mod_u64_ns / reduce_ns;

  bool pass = divmod_speedup > min_speedup;
  std::cout << "=== forwarding hot loop: naive mod_u64 vs residue fast path ("
            << iters << " decisions x " << reps
            << " interleaved rep pairs, medians) ===\n";
  kar::common::TextTable table({"scenario", "technique", "switch", "route bits",
                                "naive ns/op", "fast ns/op", "speedup",
                                "direct ns/op", "memo ns/op"});
  for (const auto& c : cases) {
    // Every committed scenario gates — the width gate in residue_fast means
    // narrow routes no longer pay the memo, so they must not regress either.
    pass = pass && c.speedup > min_speedup;
    table.add_row({c.scenario, c.technique, c.switch_name,
                   std::to_string(c.route_bits),
                   kar::common::fmt_double(c.naive_ns, 2),
                   kar::common::fmt_double(c.fast_ns, 2),
                   kar::common::fmt_double(c.speedup, 2) + "x",
                   kar::common::fmt_double(c.direct_ns, 2),
                   kar::common::fmt_double(c.memo_ns, 2)});
  }
  std::cout << table.render();

  std::cout << "\n=== rns primitives (" << divmod_iters << " ops x " << reps
            << " reps, best-of) ===\n";
  kar::common::TextTable rns_table({"op", "before ns/op", "after ns/op",
                                    "speedup"});
  rns_table.add_row({"divmod " + std::to_string(dividend.bit_length()) + "b/" +
                         std::to_string(divisor.bit_length()) +
                         "b (binary -> Knuth D)",
                     kar::common::fmt_double(binary_ns, 2),
                     kar::common::fmt_double(knuth_ns, 2),
                     kar::common::fmt_double(divmod_speedup, 2) + "x"});
  rns_table.add_row({"reduce " + std::to_string(rnp28_route.bit_length()) +
                         "b mod u64 (mod_u64 -> PreparedMod)",
                     kar::common::fmt_double(mod_u64_ns, 2),
                     kar::common::fmt_double(reduce_ns, 2),
                     kar::common::fmt_double(reduce_speedup, 2) + "x"});
  std::cout << rns_table.render()
            << "\nacceptance: every forwarding and rns speedup > "
            << kar::common::fmt_double(min_speedup, 2) << " -> "
            << (pass ? "PASS" : "FAIL") << '\n';

  if (!out_path.empty()) {
    std::string forwarding_json = "[";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& c = cases[i];
      kar::runner::JsonObject entry;
      entry.field("scenario", c.scenario)
          .field("technique", c.technique)
          .field("switch", c.switch_name)
          .field("route_bits", static_cast<std::uint64_t>(c.route_bits))
          .field("naive_ns_per_op", c.naive_ns)
          .field("fast_ns_per_op", c.fast_ns)
          .field("speedup", c.speedup)
          .field("direct_ns_per_op", c.direct_ns)
          .field("memo_ns_per_op", c.memo_ns);
      if (i > 0) forwarding_json += ",";
      forwarding_json += entry.str();
    }
    forwarding_json += "]";

    kar::runner::JsonObject record;
    record.field("bench", "micro_dataplane")
        .raw("provenance", kar::bench::provenance_json())
        .field("iters", static_cast<std::uint64_t>(iters))
        .field("divmod_iters", static_cast<std::uint64_t>(divmod_iters))
        .field("reps", static_cast<std::uint64_t>(reps))
        .raw("forwarding", forwarding_json)
        .field("divmod_binary_ns_per_op", binary_ns)
        .field("divmod_knuth_ns_per_op", knuth_ns)
        .field("divmod_speedup", divmod_speedup)
        .field("mod_u64_ns_per_op", mod_u64_ns)
        .field("prepared_mod_ns_per_op", reduce_ns)
        .field("prepared_mod_speedup", reduce_speedup)
        .field("min_speedup", min_speedup)
        .field("pass", pass);
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "micro_dataplane: cannot open " << out_path << '\n';
      return 2;
    }
    out << record.str() << '\n';
    std::cout << "recorded " << out_path << '\n';
  }
  return pass ? 0 : 1;
}
