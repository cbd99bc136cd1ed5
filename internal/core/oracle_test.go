package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"seqbist/internal/bench"
	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// serialOracle is Procedure 2 one candidate at a time: every window and
// every omission trial is one fsim.Single call over the materialized
// expansion. It is the reference the candidate-parallel path must match
// bit for bit — the same selections and the same trial count — and it
// shares the selector's T0 simulation, random stream, and configuration.
type serialOracle struct {
	sel    *Selector
	single *fsim.Single
	sims   int
}

func newSerialOracle(sel *Selector) *serialOracle {
	return &serialOracle{sel: sel, single: fsim.NewSingle(sel.c)}
}

// run is Selector.runTargets with Procedure 2 replaced by the serial
// loops.
func (o *serialOracle) run(targ []int) (*Result, error) {
	sel := o.sel
	base := sel.base()
	res := &Result{DetectedByT0: base.Detected, UDet: base.DetTime, NumTargets: base.NumDetected}
	remaining := make(map[int]bool, len(targ))
	for _, fi := range targ {
		remaining[fi] = true
	}
	for pos := 0; pos < len(targ); pos++ {
		f := targ[pos]
		if !remaining[f] {
			continue
		}
		s, ustart, err := o.find(f)
		if err != nil {
			return nil, err
		}
		var subsetIdx []int
		var subset []faults.Fault
		for _, fi := range targ[pos:] {
			if remaining[fi] {
				subsetIdx = append(subsetIdx, fi)
				subset = append(subset, sel.fl[fi])
			}
		}
		r := fsim.New(sel.c, subset, fsim.Options{Workers: 1}).Run(expand.Compose(s, sel.cfg.N, sel.cfg.expandOps()))
		newly := 0
		for k, fi := range subsetIdx {
			if r.Detected[k] {
				delete(remaining, fi)
				newly++
			}
		}
		res.Set = append(res.Set, Selected{Seq: s, TargetFault: f, UStart: ustart, UDet: base.DetTime[f], NewlyDetected: newly})
		if len(remaining) == 0 {
			break
		}
	}
	res.Sims = o.sims
	return res, nil
}

func (o *serialOracle) detects(f int, s vectors.Sequence) bool {
	o.sims++
	ok, _ := o.single.Detects(o.sel.fl[f], expand.Compose(s, o.sel.cfg.N, o.sel.cfg.expandOps()))
	return ok
}

func (o *serialOracle) find(f int) (vectors.Sequence, int, error) {
	sel := o.sel
	det, udet := o.single.Detects(sel.fl[f], sel.t0)
	if !det {
		return nil, 0, fmt.Errorf("fault %d not detected by T0", f)
	}
	ustart := udet
	var t1 vectors.Sequence
	for {
		t1 = sel.t0.Subsequence(ustart, udet)
		if o.detects(f, t1) {
			break
		}
		ustart--
		if ustart < 0 {
			return nil, 0, fmt.Errorf("no window detects fault %d", f)
		}
	}
	if sel.cfg.DisableOmission {
		return t1, ustart, nil
	}
	if sel.cfg.OmissionRestart {
		return o.omitWithRestart(f, t1), ustart, nil
	}
	return o.omitSinglePass(f, t1), ustart, nil
}

func (o *serialOracle) omitWithRestart(f int, t1 vectors.Sequence) vectors.Sequence {
	trials := 0
	budget := o.sel.cfg.MaxOmissionTrials
	for {
		accepted := false
		for _, i := range o.sel.rng.Perm(t1.Len()) {
			if t1.Len() == 1 {
				return t1
			}
			if budget > 0 && trials >= budget {
				return t1
			}
			trials++
			if candidate := t1.OmitAt(i); o.detects(f, candidate) {
				t1 = candidate
				accepted = true
				break
			}
		}
		if !accepted {
			return t1
		}
	}
}

func (o *serialOracle) omitSinglePass(f int, t1 vectors.Sequence) vectors.Sequence {
	trials := 0
	budget := o.sel.cfg.MaxOmissionTrials
	omitted := make([]bool, t1.Len())
	cur := t1
	for _, orig := range o.sel.rng.Perm(t1.Len()) {
		if cur.Len() == 1 {
			break
		}
		if budget > 0 && trials >= budget {
			break
		}
		idx := 0
		for j := 0; j < orig; j++ {
			if !omitted[j] {
				idx++
			}
		}
		trials++
		if candidate := cur.OmitAt(idx); o.detects(f, candidate) {
			cur = candidate
			omitted[orig] = true
		}
	}
	return cur
}

// maxUDetOrder is Run's default target order (OrderMaxUDet).
func maxUDetOrder(sel *Selector) []int {
	targets, detTime := sel.Targets()
	sort.Slice(targets, func(a, b int) bool {
		if detTime[targets[a]] != detTime[targets[b]] {
			return detTime[targets[a]] > detTime[targets[b]]
		}
		return targets[a] < targets[b]
	})
	return targets
}

// checkAgainstOracle runs Procedure 1 on a fresh selector through the
// candidate-parallel path and through the serial oracle, and fails on
// any difference in the selected set or the trial count.
func checkAgainstOracle(t *testing.T, name string, c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) {
	t.Helper()
	sel, err := NewSelector(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sel.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := NewSelector(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newSerialOracle(ref).run(maxUDetOrder(ref))
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if got.Sims != want.Sims {
		t.Errorf("%s: Sims = %d, serial oracle %d", name, got.Sims, want.Sims)
	}
	if len(got.Set) != len(want.Set) {
		t.Fatalf("%s: %d sequences, serial oracle %d", name, len(got.Set), len(want.Set))
	}
	for i := range got.Set {
		g, w := got.Set[i], want.Set[i]
		if !g.Seq.Equal(w.Seq) || g.UStart != w.UStart || g.UDet != w.UDet ||
			g.TargetFault != w.TargetFault || g.NewlyDetected != w.NewlyDetected {
			t.Fatalf("%s: sequence %d = {%s ustart %d udet %d target %d newly %d}, serial oracle {%s ustart %d udet %d target %d newly %d}",
				name, i, g.Seq, g.UStart, g.UDet, g.TargetFault, g.NewlyDetected,
				w.Seq, w.UStart, w.UDet, w.TargetFault, w.NewlyDetected)
		}
	}
}

// TestCandidateParallelMatchesSerialOnRegistry compares the
// candidate-parallel Procedure 2 with the serial oracle on every
// registry circuit up to s1423, at n = 1, 2, 4.
func TestCandidateParallelMatchesSerialOnRegistry(t *testing.T) {
	names := []string{"s27", "s298", "s344", "s382", "s400", "s526", "s641", "s820", "s1196", "s1423"}
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		t0 := vectors.RandomSequence(xrand.New(3), c.NumPIs(), 90)
		if name == "s27" {
			t0 = s27T0()
		}
		for _, n := range []int{1, 2, 4} {
			cfg := DefaultConfig(n)
			cfg.MaxOmissionTrials = 150
			checkAgainstOracle(t, fmt.Sprintf("%s n=%d", name, n), c, fl, t0, cfg)
		}
	}
}

// delayLine returns a circuit whose output shows XOR(A, B) from depth
// cycles earlier. Under repetition-only expansion its faults need
// windows longer than depth, so the window search spans several batches
// and omission scans reject whole batches.
func delayLine(t *testing.T, depth int) *netlist.Circuit {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("INPUT(A)\nINPUT(B)\nOUTPUT(O)\nOUTPUT(P)\nQ0 = XOR(A, B)\n")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&sb, "Q%d = DFF(Q%d)\n", i, i-1)
	}
	fmt.Fprintf(&sb, "O = BUFF(Q%d)\nP = AND(A, Q%d)\n", depth, depth)
	c, err := bench.ParseString(sb.String(), "delay")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCandidateParallelMatchesSerialAcrossConfigs covers every
// ExpandOps subset, both omission modes, and omission budgets around the
// batch width on s27, a mid-size circuit, and a delay line whose windows
// span several batches.
func TestCandidateParallelMatchesSerialAcrossConfigs(t *testing.T) {
	type input struct {
		c  *netlist.Circuit
		t0 vectors.Sequence
	}
	s298 := iscas.MustLoad("s298")
	inputs := []input{
		{iscas.S27(), s27T0()},
		{s298, vectors.RandomSequence(xrand.New(5), s298.NumPIs(), 70)},
		{delayLine(t, 100), vectors.RandomSequence(xrand.New(6), 2, 140)},
	}
	for _, in := range inputs {
		fl := faults.CollapsedUniverse(in.c)
		for ops := expand.Ops(0); ops <= expand.AllOps; ops++ {
			for _, restart := range []bool{true, false} {
				for _, budget := range []int{0, 1, 63, 64, 65} {
					cfg := DefaultConfig(2)
					cfg.ExpandOps = ops
					cfg.OmissionRestart = restart
					cfg.MaxOmissionTrials = budget
					checkAgainstOracle(t, fmt.Sprintf("%s ops %04b restart=%v budget=%d", in.c.Name, ops, restart, budget),
						in.c, fl, in.t0, cfg)
				}
			}
		}
		cfg := DefaultConfig(2)
		cfg.DisableOmission = true
		checkAgainstOracle(t, in.c.Name+" no omission", in.c, fl, in.t0, cfg)
	}
}
