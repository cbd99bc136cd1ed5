package fsim

import "sync/atomic"

// Process-wide simulation-efficiency counters, alongside patternsApplied
// (fsim.go). Like the pattern counter they are deliberately global: one
// process hosts one daemon, and threading metric sinks through every
// simulation call site would put bookkeeping on the hottest loop in the
// system. The engines accumulate locally (per call, in their scratch)
// and flush once per call, so the atomics are off the inner loop; the
// same flush feeds the owning Engine's private counters (Engine.Stats).
var (
	// gatesEvaluated counts gates the parallel-fault engine actually
	// evaluated: the work remaining after cone restriction, activity
	// gating, and quiescence.
	gatesEvaluated atomic.Int64
	// gatesSkipped counts gates a full-netlist sweep would have evaluated
	// but the active-region engine proved unnecessary (their value is the
	// broadcast fault-free value by construction).
	gatesSkipped atomic.Int64
	// groupsQuiescent counts (group, time unit) evaluations skipped
	// entirely by the quiescence check: no flip-flop diverged from the
	// fault-free machine and no fault site activated.
	groupsQuiescent atomic.Int64
	// groupsEscalated counts groups the activity heuristic escalated from
	// the active-region engine to the flat full-netlist stepper because
	// their region spans the netlist and stays hot (fsim.go,
	// noteActivity). Each escalation transition counts once.
	groupsEscalated atomic.Int64
	// groupsRepacked counts the live groups the engines dissolved when
	// they repacked their live faults into dense groups (repack.go).
	groupsRepacked atomic.Int64
)

// SimStats is a snapshot of simulation-efficiency counters — the
// process-wide totals from the package-level Stats, or one engine's share
// from Engine.Stats. Ratios of GatesEvaluated to
// GatesEvaluated+GatesSkipped measure how much of the netlist the
// active-region engine actually touches; GroupsQuiescent counts whole
// group-time-unit evaluations skipped outright; GroupsRepacked counts
// the live groups dissolved by repacking.
type SimStats struct {
	PatternsApplied int64 `json:"patterns_applied"`
	GatesEvaluated  int64 `json:"gates_evaluated"`
	GatesSkipped    int64 `json:"gates_skipped"`
	GroupsQuiescent int64 `json:"groups_quiescent"`
	GroupsEscalated int64 `json:"groups_escalated"`
	GroupsRepacked  int64 `json:"groups_repacked"`
}

// Stats returns the cumulative simulation-efficiency counters for this
// process. It feeds the daemon's GET /metrics endpoint.
func Stats() SimStats {
	return SimStats{
		PatternsApplied: patternsApplied.Load(),
		GatesEvaluated:  gatesEvaluated.Load(),
		GatesSkipped:    gatesSkipped.Load(),
		GroupsQuiescent: groupsQuiescent.Load(),
		GroupsEscalated: groupsEscalated.Load(),
		GroupsRepacked:  groupsRepacked.Load(),
	}
}

// flushInto adds a scratch's locally accumulated counters to the
// process-wide gauges and the owning engine's private counters, then
// zeroes the local counts, once per Extend or Evaluate call.
func (sc *scratch) flushInto(e *Engine) {
	if sc.evaluated != 0 {
		gatesEvaluated.Add(sc.evaluated)
		e.estat.GatesEvaluated += sc.evaluated
		sc.evaluated = 0
	}
	if sc.skipped != 0 {
		gatesSkipped.Add(sc.skipped)
		e.estat.GatesSkipped += sc.skipped
		sc.skipped = 0
	}
	if sc.quiescent != 0 {
		groupsQuiescent.Add(sc.quiescent)
		e.estat.GroupsQuiescent += sc.quiescent
		sc.quiescent = 0
	}
	if sc.escalated != 0 {
		groupsEscalated.Add(sc.escalated)
		e.estat.GroupsEscalated += sc.escalated
		sc.escalated = 0
	}
	if sc.repacked != 0 {
		groupsRepacked.Add(sc.repacked)
		e.estat.GroupsRepacked += sc.repacked
		sc.repacked = 0
	}
}
