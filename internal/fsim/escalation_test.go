package fsim

import (
	"reflect"
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/xrand"
)

// TestEscalationMatchesFull drives a feedback-heavy circuit with X-heavy
// stimuli — the workload whose whole-netlist regions stay hot enough to
// trip the escalation heuristic — through interleaved Extend/Evaluate
// calls, and requires (a) bit-for-bit identity with the full-evaluation
// reference across the escalate/de-escalate transitions, and (b) that
// escalation actually fired, so the dense<->sparse state conversions were
// really exercised.
func TestEscalationMatchesFull(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	rng := xrand.New(17)
	seq := xheavySequence(rng, c.NumPIs(), 120)

	active := New(c, fl, Options{})
	full := New(c, fl, Options{FullEvaluation: true})
	chunk := 9
	for start := 0; start < seq.Len(); start += chunk {
		end := start + chunk
		if end > seq.Len() {
			end = seq.Len()
		}
		part := seq[start:end]
		na, da := active.Evaluate(part)
		nf, df := full.Evaluate(part)
		if !reflect.DeepEqual(na, nf) || da != df {
			t.Fatalf("[%d,%d): Evaluate differs: (%v,%d) vs (%v,%d)", start, end, na, da, nf, df)
		}
		if na = active.Extend(part); !reflect.DeepEqual(na, full.Extend(part)) {
			t.Fatalf("[%d,%d): Extend newly differ", start, end)
		}
	}
	if !reflect.DeepEqual(active.Result(), full.Result()) {
		t.Fatal("final results differ")
	}
	if active.Stats().GroupsEscalated == 0 {
		t.Fatal("escalation heuristic never fired on an X-heavy feedback workload")
	}
}

// TestEscalationSharded repeats the escalation differential through
// Run's chunked early-exit schedule on a second X-heavy stimulus.
func TestEscalationSharded(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	seq := xheavySequence(xrand.New(23), c.NumPIs(), 90)
	want := New(c, fl, Options{FullEvaluation: true}).Run(seq)
	if got := New(c, fl, Options{}).Run(seq); !reflect.DeepEqual(got, want) {
		t.Fatal("escalated run differs from full reference")
	}
}

// TestEscalationStatsCounter pins the process-wide counter: an escalating
// run must advance GroupsEscalated.
func TestEscalationStatsCounter(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	seq := xheavySequence(xrand.New(29), c.NumPIs(), 120)
	before := Stats()
	e := New(c, fl, Options{})
	chunk := 9
	for start := 0; start < seq.Len(); start += chunk {
		end := start + chunk
		if end > seq.Len() {
			end = seq.Len()
		}
		e.Extend(seq[start:end])
	}
	if e.Stats().GroupsEscalated == 0 {
		t.Skip("workload did not escalate; counter not exercised")
	}
	if got := Stats().GroupsEscalated - before.GroupsEscalated; got < e.Stats().GroupsEscalated {
		t.Errorf("process-wide GroupsEscalated advanced by %d, engine recorded %d", got, e.Stats().GroupsEscalated)
	}
}
