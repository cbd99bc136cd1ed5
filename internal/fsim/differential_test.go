package fsim

import (
	"reflect"
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// These tests are the active-region engine's contract: against every
// registry circuit and against random synthetic netlists, the
// cone-restricted adaptive engine (engine.go) must be bit-for-bit
// identical to the pre-change full-netlist evaluation path kept behind
// the SetFullEvaluation hook (fullpath.go) — same newly-detected lists in
// the same order, same divergence counts, same Detected/DetTime/
// NumDetected, under committing (Extend) and non-committing (Evaluate)
// use, with binary and X-heavy stimuli.

// xheavySequence builds a sequence whose values are 0/1/X with equal
// probability: unknowns exercise the pessimistic three-valued paths the
// quiescence and activation checks must treat conservatively.
func xheavySequence(rng *xrand.RNG, width, n int) vectors.Sequence {
	seq := make(vectors.Sequence, n)
	for i := range seq {
		v := make(vectors.Vector, width)
		for k := range v {
			switch rng.Intn(3) {
			case 0:
				v[k] = logic.Zero
			case 1:
				v[k] = logic.One
			default:
				v[k] = logic.X
			}
		}
		seq[i] = v
	}
	return seq
}

// diffCheck interleaves Extend and Evaluate calls over chunks of seq on
// an active-region and a full-evaluation simulator and fails on the first
// observable difference.
func diffCheck(t *testing.T, name string, c *netlist.Circuit, fl []faults.Fault, seq vectors.Sequence) {
	t.Helper()
	diffCheckOpts(t, name, c, fl, seq, Options{})
}

// diffCheckOpts is diffCheck with a full Options block for the engine
// under test: the escalation mode hook must reproduce the full-evaluation
// reference bit for bit.
func diffCheckOpts(t *testing.T, name string, c *netlist.Circuit, fl []faults.Fault, seq vectors.Sequence, opts Options) {
	t.Helper()
	active := New(c, fl, opts)
	full := New(c, fl, Options{FullEvaluation: true})

	chunk := 7
	for start := 0; start < seq.Len(); start += chunk {
		end := start + chunk
		if end > seq.Len() {
			end = seq.Len()
		}
		part := seq[start:end]
		// Non-committing pass first: must not disturb the machines.
		na, da := active.Evaluate(part)
		nf, df := full.Evaluate(part)
		if !reflect.DeepEqual(na, nf) {
			t.Fatalf("%s [%d,%d): Evaluate newly differ: active %v, full %v",
				name, start, end, na, nf)
		}
		if da != df {
			t.Fatalf("%s [%d,%d): divergence %d != %d", name, start, end, da, df)
		}
		// Committing pass.
		na = active.Extend(part)
		nf = full.Extend(part)
		if !reflect.DeepEqual(na, nf) {
			t.Fatalf("%s [%d,%d): Extend newly differ: active %v, full %v",
				name, start, end, na, nf)
		}
	}
	ra, rf := active.Result(), full.Result()
	if !reflect.DeepEqual(ra, rf) {
		t.Fatalf("%s: final results differ", name)
	}
}

// TestActiveRegionMatchesFullRegistry runs the differential check over
// every circuit in the registry, with binary and X-heavy stimuli.
func TestActiveRegionMatchesFullRegistry(t *testing.T) {
	for _, name := range iscas.Names() {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		// Scale sequence length down for the big circuits so the full
		// reference path keeps the test fast.
		n := 60
		if c.NumGates() > 1000 {
			n = 24
		}
		if testing.Short() && c.NumGates() > 1000 {
			continue
		}
		rng := xrand.New(uint64(len(name)) * 7919)
		diffCheck(t, name, c, fl, vectors.RandomSequence(rng, c.NumPIs(), n))
		diffCheck(t, name+"/xheavy", c, fl, xheavySequence(rng, c.NumPIs(), n))
	}
}

// TestActiveRegionMatchesFullSharded repeats the check on s298 and s1423
// under a second fixed stimulus.
func TestActiveRegionMatchesFullSharded(t *testing.T) {
	for _, name := range []string{"s298", "s1423"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		rng := xrand.New(4242)
		diffCheck(t, name, c, fl, vectors.RandomSequence(rng, c.NumPIs(), 60))
	}
}

// TestActiveRegionUncollapsedUniverse exercises every fault-site kind —
// stems, gate-pin branches, and flip-flop D-pin branches — by running the
// differential check over the uncollapsed universe of a circuit built to
// contain them all.
func TestActiveRegionUncollapsedUniverse(t *testing.T) {
	src := `INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
q0 = DFF(n1)
q1 = DFF(n2)
n1 = NAND(a, q1)
n2 = NOR(b, n1)
y = AND(n1, q0, n2)
z = XOR(n1, q1)
`
	c := mustParse(t, src)
	fl := faults.Universe(c)
	kinds := map[netlist.ConsumerKind]int{}
	stems := 0
	for _, f := range fl {
		if f.IsStem() {
			stems++
			continue
		}
		kinds[c.Consumers(f.Signal)[f.Consumer].Kind]++
	}
	if stems == 0 || kinds[netlist.ConsumerGate] == 0 || kinds[netlist.ConsumerDFF] == 0 {
		t.Fatalf("fault universe misses a site kind: stems=%d gate-branches=%d dff-branches=%d",
			stems, kinds[netlist.ConsumerGate], kinds[netlist.ConsumerDFF])
	}
	rng := xrand.New(99)
	diffCheck(t, "kinds", c, fl, vectors.RandomSequence(rng, c.NumPIs(), 40))
	diffCheck(t, "kinds/xheavy", c, fl, xheavySequence(rng, c.NumPIs(), 40))
}

// TestQuiescenceCounters checks the efficiency gauges: a group whose only
// fault is never activated (stuck value equal to the constant fault-free
// site value) must be skipped by the quiescence check, and the skip must
// show up in the process-wide counters with unchanged results.
func TestQuiescenceCounters(t *testing.T) {
	// y = OR(a, na) is constant 1, so "y stuck-at-1" is never activated.
	c := mustParse(t, `INPUT(a)
OUTPUT(y)
na = NOT(a)
y = OR(a, na)
`)
	y, _ := c.SignalByName("y")
	f := faults.Fault{Signal: y, Consumer: faults.StemConsumer, Stuck: logic.One}
	seq := vectors.MustParseSequence("0 1 0 1 0 1")
	before := Stats()
	res := Run(c, []faults.Fault{f}, seq)
	after := Stats()
	if res.Detected[0] {
		t.Fatal("inactive fault reported detected")
	}
	if got := after.GroupsQuiescent - before.GroupsQuiescent; got < int64(seq.Len()) {
		t.Errorf("GroupsQuiescent advanced by %d, want >= %d", got, seq.Len())
	}
	if after.GatesSkipped <= before.GatesSkipped {
		t.Error("GatesSkipped did not advance across a quiescent run")
	}
}

// TestSimStatsAccounting checks that evaluated+skipped account for whole
// netlists: for any non-quiescent simulation the two gauges sum to a
// multiple of the gate count per (group, time unit).
func TestSimStatsAccounting(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	seq := vectors.RandomSequence(xrand.New(5), c.NumPIs(), 30)
	before := Stats()
	New(c, fl, Options{}).Run(seq)
	after := Stats()
	total := (after.GatesEvaluated - before.GatesEvaluated) + (after.GatesSkipped - before.GatesSkipped)
	if total <= 0 || total%int64(c.NumGates()) != 0 {
		t.Errorf("evaluated+skipped = %d, want a positive multiple of %d", total, c.NumGates())
	}
	if after.GatesEvaluated == before.GatesEvaluated {
		t.Error("no gates recorded as evaluated")
	}
}

// TestEvaluateSteadyStateAllocationFree locks in the pooled ATPG inner
// loop: once warmed up, Evaluate of a candidate that detects nothing must
// not allocate.
func TestEvaluateSteadyStateAllocationFree(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	inc := New(c, fl, Options{})
	warm := vectors.RandomSequence(xrand.New(8), c.NumPIs(), 60)
	inc.Extend(warm)
	cand := vectors.RandomSequence(xrand.New(9), c.NumPIs(), 16)
	inc.Evaluate(cand) // warm the pools (trace arena, scratch growth)
	if newly, _ := inc.Evaluate(cand); len(newly) != 0 {
		t.Skip("candidate unexpectedly detects faults; pick a different seed")
	}
	allocs := testing.AllocsPerRun(20, func() {
		inc.Evaluate(cand)
	})
	if allocs > 0 {
		t.Errorf("Evaluate allocated %.1f times per call in steady state, want 0", allocs)
	}
}
