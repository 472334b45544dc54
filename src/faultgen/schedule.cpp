#include "faultgen/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace kar::faultgen {

std::string FailureSchedule::describe(const topo::Topology& topo) const {
  std::ostringstream out;
  for (const LinkEvent& event : events) {
    const topo::Link& link = topo.link(event.link);
    out << "t=" << event.time << (event.fail ? " fail " : " repair ")
        << topo.name(link.a.node) << '-' << topo.name(link.b.node) << '\n';
  }
  return out.str();
}

std::string_view to_string(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kRandomUpDown: return "updown";
    case ScheduleKind::kSrlgGroups: return "srlg";
    case ScheduleKind::kFlapping: return "flap";
    case ScheduleKind::kKFailureSweep: return "sweep";
  }
  throw std::logic_error("to_string: bad ScheduleKind");
}

ScheduleKind schedule_kind_from_string(std::string_view name) {
  if (name == "updown") return ScheduleKind::kRandomUpDown;
  if (name == "srlg") return ScheduleKind::kSrlgGroups;
  if (name == "flap") return ScheduleKind::kFlapping;
  if (name == "sweep") return ScheduleKind::kKFailureSweep;
  throw std::invalid_argument("unknown schedule kind: " + std::string(name));
}

std::vector<topo::LinkId> eligible_links(const topo::Topology& topo,
                                         const ScheduleConfig& config) {
  std::vector<topo::LinkId> links;
  for (topo::LinkId id = 0; id < topo.link_count(); ++id) {
    const topo::Link& link = topo.link(id);
    const bool touches_edge =
        topo.kind(link.a.node) == topo::NodeKind::kEdgeNode ||
        topo.kind(link.b.node) == topo::NodeKind::kEdgeNode;
    if (touches_edge && !config.include_edge_links) continue;
    links.push_back(id);
  }
  return links;
}

namespace {

/// Exponential holding time with the given mean (inverse-CDF sampling).
double exponential(common::Rng& rng, double mean) {
  // 1 - uniform() is in (0, 1], keeping the log finite.
  return -mean * std::log(1.0 - rng.uniform());
}

/// Draws `count` distinct elements of `pool` into `out` (order randomized).
const std::vector<topo::LinkId>& sample_without_replacement(
    const std::vector<topo::LinkId>& pool, std::size_t count,
    common::Rng& rng, std::vector<topo::LinkId>& out) {
  out.assign(pool.begin(), pool.end());
  rng.shuffle(out);
  if (out.size() > count) out.resize(count);
  return out;
}

void generate_updown(const std::vector<topo::LinkId>& links,
                     const ScheduleConfig& config, common::Rng& rng,
                     ScheduleScratch& scratch) {
  for (const topo::LinkId link : links) {
    if (!rng.chance(config.per_link_failure_probability)) continue;
    const double down_at = rng.uniform() * config.horizon_s;
    scratch.events.push_back({down_at, link, /*fail=*/true});
    const double up_at = down_at + exponential(rng, config.mean_downtime_s);
    if (up_at < config.horizon_s) {
      scratch.events.push_back({up_at, link, /*fail=*/false});
    }
  }
}

void generate_srlg(const std::vector<topo::LinkId>& links,
                   const ScheduleConfig& config, common::Rng& rng,
                   ScheduleScratch& scratch) {
  for (std::size_t g = 0; g < config.group_count; ++g) {
    const auto& group = sample_without_replacement(links, config.group_size,
                                                   rng, scratch.sample);
    const double down_at = rng.uniform() * config.horizon_s;
    const double up_at = down_at + exponential(rng, config.mean_downtime_s);
    for (const topo::LinkId link : group) {
      scratch.events.push_back({down_at, link, /*fail=*/true});
      if (up_at < config.horizon_s) {
        scratch.events.push_back({up_at, link, /*fail=*/false});
      }
    }
  }
}

void generate_flapping(const std::vector<topo::LinkId>& links,
                       const ScheduleConfig& config, common::Rng& rng,
                       ScheduleScratch& scratch) {
  const auto& flappers = sample_without_replacement(
      links, config.flapping_links, rng, scratch.sample);
  for (const topo::LinkId link : flappers) {
    // Random phase so several flappers are not synchronized.
    double t = rng.uniform() * config.flap_half_period_s;
    bool fail = true;
    while (t < config.horizon_s) {
      scratch.events.push_back({t, link, fail});
      fail = !fail;
      t += config.flap_half_period_s;
    }
  }
}

void generate_sweep(const std::vector<topo::LinkId>& links,
                    const ScheduleConfig& config, common::Rng& rng,
                    ScheduleScratch& scratch) {
  const auto& victims = sample_without_replacement(links, config.k_failures,
                                                   rng, scratch.sample);
  if (victims.empty()) return;
  // Failures staged evenly across the first half of the horizon, so traffic
  // keeps flowing while the failure set grows.
  const double stage = config.horizon_s / (2.0 * static_cast<double>(victims.size()));
  double t = stage;
  for (const topo::LinkId link : victims) {
    scratch.events.push_back({t, link, /*fail=*/true});
    t += stage;
  }
}

}  // namespace

FailureSchedule generate_schedule(const topo::Topology& topo,
                                  const ScheduleConfig& config,
                                  common::Rng& rng) {
  ScheduleScratch scratch;
  return generate_schedule(eligible_links(topo, config), config, rng, scratch);
}

FailureSchedule generate_schedule(const std::vector<topo::LinkId>& links,
                                  const ScheduleConfig& config,
                                  common::Rng& rng, ScheduleScratch& scratch) {
  if (config.horizon_s <= 0.0) {
    throw std::invalid_argument("generate_schedule: horizon must be positive");
  }
  FailureSchedule schedule;
  if (links.empty()) return schedule;
  scratch.events.clear();
  switch (config.kind) {
    case ScheduleKind::kRandomUpDown:
      generate_updown(links, config, rng, scratch);
      break;
    case ScheduleKind::kSrlgGroups:
      generate_srlg(links, config, rng, scratch);
      break;
    case ScheduleKind::kFlapping:
      generate_flapping(links, config, rng, scratch);
      break;
    case ScheduleKind::kKFailureSweep:
      generate_sweep(links, config, rng, scratch);
      break;
  }
  // A stable sort by time, as a sort of unique (time, index) keys, which
  // needs no merge buffer.
  scratch.order.clear();
  for (std::uint32_t i = 0; i < scratch.events.size(); ++i) {
    scratch.order.emplace_back(scratch.events[i].time, i);
  }
  std::sort(scratch.order.begin(), scratch.order.end());
  schedule.events.reserve(scratch.events.size());
  for (const auto& [time, index] : scratch.order) {
    schedule.events.push_back(scratch.events[index]);
  }
  return schedule;
}

}  // namespace kar::faultgen
