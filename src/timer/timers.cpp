// timers.cpp - TimerBase and SeqTimer (TimerV1/TimerV2 live in their own
// translation units so their software costs can be measured separately for
// paper Table II, and so that only timer_v1.cpp needs OpenMP).
#include "timer/timers.hpp"

namespace ot {

TimerBase::TimerBase(Netlist& netlist, const TimerOptions& options)
    : _netlist(&netlist), _graph(netlist), _state(netlist, options), _options(options) {}

void TimerBase::full_update() {
  _last_update_tasks = 2 * _graph.num_pins();
  run_full();
}

void TimerBase::run_full() {
  _state.update_all_loads(*_netlist);
  const std::vector<int>& fwd = _graph.topo_order();
  run_update(fwd, std::vector<int>(fwd.rbegin(), fwd.rend()));
}

void TimerBase::resize(int gate_id, const Cell& new_cell) {
  Netlist& nl = *_netlist;
  const Gate& gate = nl.gate(gate_id);

  // Apply the design transform.
  nl.resize_gate(gate_id, new_cell);

  // Input pin capacitances changed -> the loads of the gate's input nets
  // changed -> the *drivers* of those nets produce new delays/slews.  The
  // gate's own arcs changed too -> its output pin is re-timed.
  std::vector<int> seeds;
  for (std::size_t cp = 0; cp < gate.cell->pins.size(); ++cp) {
    const int pin_id = gate.pins[cp];
    const Pin& p = nl.pin(pin_id);
    if (gate.cell->pins[cp].is_input) {
      _state.update_net_load(nl, p.net);
      const int driver = nl.net(p.net).driver;
      if (driver >= 0) seeds.push_back(driver);
    } else {
      seeds.push_back(pin_id);
    }
  }

  const std::vector<int> fwd = _graph.forward_cone(seeds);
  const std::vector<int> bwd = _graph.backward_cone(fwd);
  _last_update_tasks = fwd.size() + bwd.size();
  run_update(fwd, bwd);
}

void TimerBase::run_update(const std::vector<int>& fwd, const std::vector<int>& bwd) {
  run_forward(fwd);
  run_backward(bwd);
}

SeqTimer::SeqTimer(Netlist& netlist, const TimerOptions& options)
    : TimerBase(netlist, options) {}

void SeqTimer::run_forward(const std::vector<int>& pins) {
  for (int p : pins) propagate_pin_forward(*_netlist, _graph, _state, p);
}

void SeqTimer::run_backward(const std::vector<int>& pins) {
  for (int p : pins) propagate_pin_backward(*_netlist, _graph, _state, p);
}

}  // namespace ot
