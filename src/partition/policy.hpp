// The offload policy (paper section 3.3), declared once for both models.
//
// The live platform (platform::PlatformConfig) and the trace emulator
// (emul::EmulatorConfig) both derive from OffloadPolicy, so a live run and
// its replay decide under one value: the same trigger, objective, margins,
// link, surrogate speed-up and section 5.2 enhancements. Both build their
// partition requests and monitor granularity through the helpers below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "monitor/monitor.hpp"
#include "monitor/resource_monitor.hpp"
#include "netsim/link.hpp"
#include "partition/partitioner.hpp"

namespace aide::partition {

struct OffloadPolicy {
  netsim::LinkParams link = netsim::LinkParams::wavelan();
  double surrogate_speedup = 3.5;  // paper-measured surrogate/client ratio
  monitor::TriggerPolicy trigger;  // paper: <5% free, x3
  Objective objective = Objective::free_memory;
  // Minimum client-heap fraction an acceptable partitioning must free
  // (paper: at least 20%).
  double min_free_fraction = 0.20;
  double min_improvement = 0.0;  // speed_up objective margin
  // The paper's prototype "performs a single offloading from a client device
  // to a single surrogate server".
  std::size_t max_offloads = 1;
  // Paper 5.2 enhancements: execute stateless native methods where invoked
  // ("Native"); place large primitive int arrays at object granularity
  // ("Array").
  bool stateless_natives_local = false;
  bool arrays_as_objects = false;
  std::int64_t min_array_bytes = 4096;

  // The partitioner's input for a client heap of `heap` bytes whose
  // execution graph summarizes `history` of virtual time (clamped to at
  // least 1 ns). `min_free_override` replaces the fraction-of-heap bound.
  [[nodiscard]] PartitionRequest request(
      std::int64_t heap, SimDuration history,
      std::optional<std::int64_t> min_free_override = std::nullopt) const {
    PartitionRequest req;
    req.objective = objective;
    req.min_free_bytes = min_free_override.value_or(static_cast<std::int64_t>(
        min_free_fraction * static_cast<double>(heap)));
    req.surrogate_speedup = surrogate_speedup;
    req.min_improvement = min_improvement;
    req.link = link;
    req.history_duration = std::max<SimDuration>(history, 1);
    return req;
  }

  // The monitor's component granularity; `int_array_class` is the one class
  // the "Array" enhancement may track per object.
  [[nodiscard]] monitor::GranularityPolicy granularity(
      ClassId int_array_class) const {
    return {arrays_as_objects, min_array_bytes, {int_array_class}};
  }

  bool operator==(const OffloadPolicy&) const = default;
};

}  // namespace aide::partition
