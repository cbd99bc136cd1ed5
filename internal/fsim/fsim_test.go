package fsim

import (
	"reflect"
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// s27T0 is the test sequence for s27 from the paper's Table 2.
func s27T0() vectors.Sequence {
	return vectors.MustParseSequence("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011")
}

// TestPaperTable2Distribution is a keystone reproduction test: simulating
// the paper's Table 2 sequence on s27 must detect all 32 collapsed faults
// with first-detection times distributed exactly as printed in the paper:
//
//	u=1: 9 faults   u=2: 4   u=4: 1   u=5: 11   u=6: 2   u=8: 3   u=9: 2
func TestPaperTable2Distribution(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	res := Run(c, fl, s27T0())
	if res.NumDetected != 32 {
		t.Fatalf("detected %d/32 faults", res.NumDetected)
	}
	byTime := make(map[int]int)
	for i := range fl {
		byTime[res.DetTime[i]]++
	}
	want := map[int]int{1: 9, 2: 4, 4: 1, 5: 11, 6: 2, 8: 3, 9: 2}
	for u := 0; u < 10; u++ {
		if byTime[u] != want[u] {
			t.Errorf("time unit %d: %d detections, want %d", u, byTime[u], want[u])
		}
	}
}

func TestCoverage(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	res := Run(c, fl, s27T0())
	if res.Coverage() != 1.0 {
		t.Errorf("coverage = %v, want 1.0", res.Coverage())
	}
	empty := Run(c, fl, nil)
	if empty.NumDetected != 0 || empty.Coverage() != 0 {
		t.Errorf("empty sequence detected %d faults", empty.NumDetected)
	}
}

func TestPrefixMonotonicity(t *testing.T) {
	// A prefix of a sequence detects a subset of the faults, with
	// identical detection times for the common part.
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	t0 := s27T0()
	full := Run(c, fl, t0)
	for cut := 0; cut <= t0.Len(); cut += 3 {
		prefix := Run(c, fl, t0[:cut])
		for i := range fl {
			if prefix.Detected[i] {
				if !full.Detected[i] {
					t.Fatalf("fault %d detected by prefix but not full sequence", i)
				}
				if prefix.DetTime[i] != full.DetTime[i] {
					t.Fatalf("fault %d: prefix det time %d, full %d", i, prefix.DetTime[i], full.DetTime[i])
				}
			}
			if full.Detected[i] && full.DetTime[i] < cut && !prefix.Detected[i] {
				t.Fatalf("fault %d detected at %d by full run but missed by prefix of %d", i, full.DetTime[i], cut)
			}
		}
	}
}

// TestSingleMatchesParallel cross-checks single-fault two-machine
// simulation (Batch, one candidate for the verdict and one prefix per
// lane for the detection time) against the 64-lane parallel-fault Engine
// on every s27 fault and on random sequences.
func TestSingleMatchesParallel(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	b := NewBatch(c)
	rng := xrand.New(99)
	seqs := []vectors.Sequence{s27T0()}
	for i := 0; i < 10; i++ {
		seqs = append(seqs, vectors.RandomSequence(rng, c.NumPIs(), 5+rng.Intn(20)))
	}
	for si, seq := range seqs {
		par := Run(c, fl, seq)
		for i, f := range fl {
			det, at := batchDetects(b, f, seq), batchDetTime(b, f, seq)
			if det != par.Detected[i] || at != par.DetTime[i] {
				t.Fatalf("seq %d fault %s: batch (%v,%d) vs parallel (%v,%d)",
					si, f.Name(c), det, at, par.Detected[i], par.DetTime[i])
			}
		}
	}
}

func TestSingleMatchesParallelSynthetic(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	b := NewBatch(c)
	rng := xrand.New(7)
	seq := vectors.RandomSequence(rng, c.NumPIs(), 40)
	par := Run(c, fl, seq)
	// Spot-check a deterministic sample of faults (every 7th).
	for i := 0; i < len(fl); i += 7 {
		det, at := batchDetects(b, fl[i], seq), batchDetTime(b, fl[i], seq)
		if det != par.Detected[i] || at != par.DetTime[i] {
			t.Fatalf("fault %s: batch (%v,%d) vs parallel (%v,%d)",
				fl[i].Name(c), det, at, par.Detected[i], par.DetTime[i])
		}
	}
}

func TestIncrementalExtendMatchesOneShot(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	t0 := s27T0()
	oneShot := Run(c, fl, t0)

	inc := New(c, fl, Options{})
	inc.Extend(t0[:3])
	inc.Extend(t0[3:7])
	inc.Extend(t0[7:])
	split := inc.Result()

	for i := range fl {
		if split.Detected[i] != oneShot.Detected[i] || split.DetTime[i] != oneShot.DetTime[i] {
			t.Fatalf("fault %d: split (%v,%d) vs one-shot (%v,%d)", i,
				split.Detected[i], split.DetTime[i], oneShot.Detected[i], oneShot.DetTime[i])
		}
	}
	if inc.Now() != t0.Len() {
		t.Errorf("Now() = %d, want %d", inc.Now(), t0.Len())
	}
}

// TestPeekDoesNotCommit: a look-ahead query (Evaluate; the name keeps the
// earlier Peek wrapper's) leaves time and detections untouched and predicts
// exactly what Extend then delivers.
func TestPeekDoesNotCommit(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	t0 := s27T0()

	inc := New(c, fl, Options{})
	inc.Extend(t0[:2])
	before := inc.Result()

	peeked, div := inc.Evaluate(t0[2:])
	if div < 0 {
		t.Fatalf("negative divergence %d", div)
	}
	after := inc.Result()
	for i := range fl {
		if before.Detected[i] != after.Detected[i] {
			t.Fatal("Evaluate changed detection state")
		}
	}
	if inc.Now() != 2 {
		t.Fatal("Evaluate advanced time")
	}

	// Evaluate's prediction must match what Extend then reports.
	newly := inc.Extend(t0[2:])
	if len(peeked) != len(newly) {
		t.Fatalf("Evaluate predicted %d new detections, Extend delivered %d", len(peeked), len(newly))
	}
	seen := make(map[int]bool)
	for _, fi := range peeked {
		seen[fi] = true
	}
	for _, fi := range newly {
		if !seen[fi] {
			t.Fatalf("Extend detected fault %d that Evaluate missed", fi)
		}
	}
}

func TestExtendReturnsNewlyDetected(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	inc := New(c, fl, Options{})
	newly := inc.Extend(s27T0())
	if len(newly) != 32 {
		t.Fatalf("Extend returned %d newly detected, want 32", len(newly))
	}
	// A second pass over the same vectors detects nothing new.
	newly = inc.Extend(s27T0())
	if len(newly) != 0 {
		t.Errorf("re-extension re-detected %d faults", len(newly))
	}
}

func TestBranchVsStemFaultDiffer(t *testing.T) {
	// In s27, G14 feeds both G8 (AND) and G10 (NOR). Construct the stem
	// fault G14 SA1 and the branch fault G14->G10 SA1. They must generally
	// produce different detection behaviour.
	c := iscas.S27()
	g14, _ := c.SignalByName("G14")
	g10, _ := c.SignalByName("G10")
	var branch faults.Fault
	found := false
	for ci, con := range c.Consumers(g14) {
		if con.Kind == netlist.ConsumerGate && c.Gates[con.Index].Out == g10 {
			branch = faults.Fault{Signal: g14, Consumer: int32(ci), Stuck: 2 /* logic.One */}
			found = true
		}
	}
	if !found {
		t.Fatal("no G14->G10 branch")
	}
	stem := faults.Fault{Signal: g14, Consumer: faults.StemConsumer, Stuck: 2}

	rng := xrand.New(12345)
	differ := false
	b := NewBatch(c)
	for i := 0; i < 50 && !differ; i++ {
		seq := vectors.RandomSequence(rng, c.NumPIs(), 8)
		if batchDetTime(b, stem, seq) != batchDetTime(b, branch, seq) {
			differ = true
		}
	}
	if !differ {
		t.Error("stem and branch fault behaved identically on 50 random sequences; injection suspect")
	}
}

func TestDFFBranchFaultInjected(t *testing.T) {
	// A stuck-at on a DFF D-pin branch must corrupt the next state.
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	hasDFFBranch := false
	for _, f := range fl {
		if !f.IsStem() {
			con := c.Consumers(f.Signal)[f.Consumer]
			if con.Kind == netlist.ConsumerDFF {
				hasDFFBranch = true
			}
		}
	}
	// s27's fanout signals feed only gates, so synthesize a tiny case.
	src := `INPUT(a)
OUTPUT(y)
OUTPUT(z)
q = DFF(n)
n = NOT(a)
y = BUFF(q)
z = AND(n, a)
`
	_ = hasDFFBranch
	c2 := mustParse(t, src)
	n, _ := c2.SignalByName("n")
	var dffBranch faults.Fault
	found := false
	for ci, con := range c2.Consumers(n) {
		if con.Kind == netlist.ConsumerDFF {
			dffBranch = faults.Fault{Signal: n, Consumer: int32(ci), Stuck: 2}
			found = true
		}
	}
	if !found {
		t.Fatal("no DFF branch site on n")
	}
	// With a=1 forever: n=0, so good y=0 from u=1 on; faulty D pin stuck
	// at 1 makes y=1: detected at u=1. The other branch (z = AND(n,a))
	// stays fault-free, so only the state path differs.
	seq := vectors.MustParseSequence("1 1 1")
	if at := batchDetTime(NewBatch(c2), dffBranch, seq); at != 1 {
		t.Errorf("DFF branch fault: detected at %d, want 1", at)
	}
	par := Run(c2, []faults.Fault{dffBranch}, seq)
	if !par.Detected[0] || par.DetTime[0] != 1 {
		t.Errorf("parallel: detected=%v at %d", par.Detected[0], par.DetTime[0])
	}
}

func TestPIStemFault(t *testing.T) {
	c := mustParse(t, `INPUT(a)
OUTPUT(y)
y = BUFF(a)
`)
	a, _ := c.SignalByName("a")
	f := faults.Fault{Signal: a, Consumer: faults.StemConsumer, Stuck: 1 /* Zero */}
	if at := batchDetTime(NewBatch(c), f, vectors.MustParseSequence("0 1")); at != 1 {
		t.Errorf("PI SA0 under input 1: detected at %d, want 1", at)
	}
}

func TestUndetectableFaultStaysUndetected(t *testing.T) {
	// y = OR(a, na) with na = NOT(a) is constant 1; y SA1 is undetectable.
	c := mustParse(t, `INPUT(a)
OUTPUT(y)
na = NOT(a)
y = OR(a, na)
`)
	y, _ := c.SignalByName("y")
	f := faults.Fault{Signal: y, Consumer: faults.StemConsumer, Stuck: 2}
	res := Run(c, []faults.Fault{f}, vectors.MustParseSequence("0 1 0 1"))
	if res.Detected[0] {
		t.Error("undetectable fault reported detected")
	}
}

func TestAccessors(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	inc := New(c, fl, Options{})
	if len(inc.goodState) != c.NumDFFs() {
		t.Errorf("good state length %d", len(inc.goodState))
	}
	inc.Extend(s27T0()[:2])
	// After two vectors of the Table 2 sequence the good state is (0,1,0)
	// (verified independently in package sim).
	st := inc.goodState
	if st[0].String()+st[1].String()+st[2].String() != "010" {
		t.Errorf("good state = %v%v%v, want 010", st[0], st[1], st[2])
	}
}

func TestPOTraceMatchesDetection(t *testing.T) {
	// POTrace must show the faulty value diverging exactly where Batch
	// reports the first detection.
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	t0 := s27T0()
	b := NewBatch(c)
	good := Run(c, fl, t0)
	checked := 0
	for i, f := range fl {
		if !good.Detected[i] {
			continue
		}
		checked++
		trace := POTrace(c, f, t0)
		if len(trace) != t0.Len() {
			t.Fatalf("trace length %d", len(trace))
		}
		// At the detection time at least one PO must be the definite
		// complement of the fault-free value; before it, none may be.
		at := batchDetTime(b, f, t0)
		if at != good.DetTime[i] {
			t.Fatalf("fault %d inconsistency", i)
		}
		goodTrace := simGoodPOs(c, t0)
		diverged := false
		for _, po := range trace[at] {
			_ = po
		}
		for k := range trace[at] {
			gv, bv := goodTrace[at][k], trace[at][k]
			if gv.IsBinary() && bv.IsBinary() && gv != bv {
				diverged = true
			}
		}
		if !diverged {
			t.Fatalf("fault %s: POTrace shows no divergence at detection time %d", f.Name(c), at)
		}
		if checked > 8 {
			break
		}
	}
}

func TestManyFaultsAcrossGroupBoundary(t *testing.T) {
	// s298's collapsed universe exceeds 64 faults, exercising multi-group
	// bookkeeping; verify group-boundary faults agree with Batch.
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	if len(fl) <= 130 {
		t.Fatalf("want > 130 faults to span 3 groups, got %d", len(fl))
	}
	seq := vectors.RandomSequence(xrand.New(31), c.NumPIs(), 30)
	par := Run(c, fl, seq)
	b := NewBatch(c)
	for _, i := range []int{0, 63, 64, 65, 127, 128, len(fl) - 1} {
		if at := batchDetTime(b, fl[i], seq); at != par.DetTime[i] {
			t.Errorf("fault %d (%s): batch detects at %d, parallel at %d",
				i, fl[i].Name(c), at, par.DetTime[i])
		}
	}
}

// TestForcedModesMatchFull pins event-driven propagation with escalation
// switched off: every step, including the X-heavy ones that would
// escalate under modeAuto, must match the full-evaluation reference.
func TestForcedModesMatchFull(t *testing.T) {
	for _, name := range []string{"s298", "s526"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		rng := xrand.New(707)
		bin := vectors.RandomSequence(rng, c.NumPIs(), 40)
		xh := xheavySequence(rng, c.NumPIs(), 40)
		opts := Options{mode: modeQueue}
		diffCheckOpts(t, name+"/queue", c, fl, bin, opts)
		diffCheckOpts(t, name+"/queue/xheavy", c, fl, xh, opts)
	}
}

// TestEngineRunReuse pins the Options-API contract that an Engine is
// reusable: two Run calls on one engine must equal a fresh engine's Run,
// and an Extend after a Run must start from the reset state.
func TestEngineRunReuse(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	seq := vectors.RandomSequence(xrand.New(808), c.NumPIs(), 50)
	e := New(c, fl, Options{Workers: 2})
	first := e.Run(seq)
	second := e.Run(seq)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("second Run on the same engine differs from the first")
	}
	fresh := New(c, fl, Options{}).Run(seq)
	if !reflect.DeepEqual(first, fresh) {
		t.Fatal("reused engine differs from a fresh engine")
	}
}

// TestOptionsValidation pins the constructor's panic on a meaningless
// configuration and the zero-value defaults.
func TestOptionsValidation(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	if got := New(c, fl, Options{}).opts; got.Workers != 1 || got.FullEvaluation {
		t.Fatalf("normalized zero Options = %+v, want Workers=1", got)
	}
	mustPanic := func(name string, opts Options) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		New(c, fl, opts)
	}
	mustPanic("mode=99", Options{mode: propMode(99)})
}
