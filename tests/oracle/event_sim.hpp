#pragma once
// Test oracle: a plain full-netlist event-driven glitch-propagation
// simulator for a single clock cycle. It implements the same timed model
// as sim::CompiledEventSim (logical, electrical and latching-window
// masking; see sim/compiled_kernel.hpp) in the most direct way — every
// gate re-simulated in topological order, golden and struck runs
// computed separately, fresh allocations per cycle — so the differential
// tests can check the compiled kernel against it cycle by cycle.

#include <optional>
#include <vector>

#include "set/strike_plan.hpp"
#include "sim/compiled_kernel.hpp"
#include "sim/digital_waveform.hpp"
#include "sta/sta.hpp"

namespace cwsp::sim {

class EventSim {
 public:
  /// Precomputes topological order and per-gate delays.
  explicit EventSim(const Netlist& netlist);

  /// Simulates one cycle: sources take `pi_values` / `ff_q_values` at t=0,
  /// flip-flops capture at `capture_time`. The optional strike inverts its
  /// net during [start, start+width).
  [[nodiscard]] CycleResult simulate_cycle(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      Picoseconds capture_time,
      const std::optional<set::Strike>& strike) const;

  /// The waveform on a given net for the same scenario (for inspection
  /// and tests).
  [[nodiscard]] DigitalWaveform net_waveform(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      const std::optional<set::Strike>& strike, NetId net) const;

 private:
  [[nodiscard]] std::vector<DigitalWaveform> propagate(
      const std::vector<bool>& pi_values, const std::vector<bool>& ff_q_values,
      const std::optional<set::Strike>& strike) const;

  const Netlist* netlist_;
  std::vector<GateId> topo_order_;
  std::vector<double> gate_delay_ps_;
};

}  // namespace cwsp::sim
