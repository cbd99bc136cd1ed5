package core

import (
	"fmt"
	"slices"
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
// every omission trial is one run of a one-fault fsim.Engine over the
// materialized expansion. It is the reference the candidate-parallel path
// must match bit for bit — the same selections and the same trial count —
// and it shares the selector's T0 simulation, random stream, and
// configuration.
type serialOracle struct {
	sel     *Selector
	engines map[int]*fsim.Engine // one-fault engine per target
	sims    int
}

func newSerialOracle(sel *Selector) *serialOracle {
	return &serialOracle{sel: sel, engines: make(map[int]*fsim.Engine)}
}

// simulate runs the one-fault engine of target f over seq.
func (o *serialOracle) simulate(f int, seq vectors.Sequence) fsim.Result {
	e := o.engines[f]
	if e == nil {
		e = fsim.New(o.sel.c, o.sel.fl[f:f+1], fsim.Options{})
		o.engines[f] = e
	}
	return e.Run(seq)
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
		r := fsim.Run(sel.c, subset, expand.Compose(s, sel.cfg.N, sel.cfg.expandOps()))
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
	return o.simulate(f, expand.Compose(s, o.sel.cfg.N, o.sel.cfg.expandOps())).Detected[0]
}

func (o *serialOracle) find(f int) (vectors.Sequence, int, error) {
	sel := o.sel
	r := o.simulate(f, sel.t0)
	udet := r.DetTime[0]
	if !r.Detected[0] {
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
	checkSameResult(t, name, got, want)
}

// checkSameResult fails on any difference between two Results' exported
// fields: the selected set, the T0 detection data and the trial count.
func checkSameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Sims != want.Sims {
		t.Errorf("%s: Sims = %d, want %d", name, got.Sims, want.Sims)
	}
	if got.NumTargets != want.NumTargets || !slices.Equal(got.DetectedByT0, want.DetectedByT0) || !slices.Equal(got.UDet, want.UDet) {
		t.Errorf("%s: T0 detection data differs", name)
	}
	if len(got.Set) != len(want.Set) {
		t.Fatalf("%s: %d sequences, want %d", name, len(got.Set), len(want.Set))
	}
	for i := range got.Set {
		g, w := got.Set[i], want.Set[i]
		if !g.Seq.Equal(w.Seq) || g.UStart != w.UStart || g.UDet != w.UDet ||
			g.TargetFault != w.TargetFault || g.NewlyDetected != w.NewlyDetected {
			t.Fatalf("%s: sequence %d = {%s ustart %d udet %d target %d newly %d}, want {%s ustart %d udet %d target %d newly %d}",
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

// TestMemoizedTrialsMatchSerialOracle runs many target orders on one
// Selector, as the strategies do, so that later runs read a warm
// detection memo and window memo: the greedy order, its reverse and three
// seeded shuffles, in three rounds after Reseed (the second replays the
// first round's seeds, the third draws new ones). Every Result must
// equal, field for field and trial count included, the serial oracle's
// on a fresh Selector reseeded the same way.
func TestMemoizedTrialsMatchSerialOracle(t *testing.T) {
	names := []string{"s27", "s298", "s526", "s820"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		t0 := vectors.RandomSequence(xrand.New(3), c.NumPIs(), 90)
		if name == "s27" {
			t0 = s27T0()
		}
		cfg := DefaultConfig(2)
		cfg.MaxOmissionTrials = 150
		sel, err := NewSelector(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		greedy := maxUDetOrder(sel)
		reverse := slices.Clone(greedy)
		slices.Reverse(reverse)
		orders := [][]int{greedy, reverse}
		rng := xrand.New(11)
		for range 3 {
			o := slices.Clone(greedy)
			rng.Shuffle(o)
			orders = append(orders, o)
		}
		// Round 1 replays round 0's seeds; round 2 reseeds.
		for round, seedBase := range []uint64{1, 1, 2} {
			for i, order := range orders {
				seed := seedBase + uint64(10*i)
				label := fmt.Sprintf("%s round %d order %d seed %d", name, round, i, seed)
				sel.Reseed(seed)
				got, err := sel.RunOrder(order)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref, err := NewSelector(c, fl, t0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref.Reseed(seed)
				want, err := newSerialOracle(ref).run(order)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				checkSameResult(t, label, got, want)
			}
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

// oracleCompactSetPasses is §3.2 compaction without fault dropping
// across passes: every pass simulates each sequence against all targets
// still live in that pass, and the bookkeeping is keyed by TargetFault.
// It is the reference CompactSetPasses must match on sets whose
// TargetFaults are distinct.
func oracleCompactSetPasses(c *netlist.Circuit, fl []faults.Fault, res *Result, cfg Config, enabled [4]bool) ([]Selected, CompactStats) {
	set := make([]Selected, len(res.Set))
	copy(set, res.Set)
	stats := CompactStats{Before: StatsOf(set)}

	targIdx := make([]int, 0, res.NumTargets)
	for i := range fl {
		if res.DetectedByT0[i] {
			targIdx = append(targIdx, i)
		}
	}

	detCount := make(map[int]int, len(set))
	genKey := func(s *Selected) int { return s.TargetFault }

	for pass := 0; pass < 4; pass++ {
		if !enabled[pass] {
			continue
		}
		work := make([]Selected, len(set))
		copy(work, set)
		switch pass {
		case 0:
			sort.SliceStable(work, func(i, j int) bool {
				if work[i].Seq.Len() != work[j].Seq.Len() {
					return work[i].Seq.Len() < work[j].Seq.Len()
				}
				return genKey(&work[i]) < genKey(&work[j])
			})
		case 1:
			sort.SliceStable(work, func(i, j int) bool {
				if work[i].Seq.Len() != work[j].Seq.Len() {
					return work[i].Seq.Len() > work[j].Seq.Len()
				}
				return genKey(&work[i]) < genKey(&work[j])
			})
		case 2:
			for i, j := 0, len(work)-1; i < j; i, j = i+1, j-1 {
				work[i], work[j] = work[j], work[i]
			}
		case 3:
			sort.SliceStable(work, func(i, j int) bool {
				ci, cj := detCount[genKey(&work[i])], detCount[genKey(&work[j])]
				if ci != cj {
					return ci > cj
				}
				return genKey(&work[i]) < genKey(&work[j])
			})
		}

		covered := make(map[int]bool, len(targIdx))
		keep := make(map[int]bool, len(work))
		for wi := range work {
			s := &work[wi]
			live := make([]faults.Fault, 0, len(targIdx))
			liveIdx := make([]int, 0, len(targIdx))
			for _, fi := range targIdx {
				if !covered[fi] {
					live = append(live, fl[fi])
					liveIdx = append(liveIdx, fi)
				}
			}
			newly := 0
			if len(live) > 0 {
				r := fsim.Run(c, live, expand.Compose(s.Seq, cfg.N, cfg.expandOps()))
				for k := range live {
					if r.Detected[k] {
						covered[liveIdx[k]] = true
						newly++
					}
				}
			}
			detCount[genKey(s)] = newly
			if newly > 0 {
				keep[genKey(s)] = true
			} else {
				stats.Dropped[pass]++
			}
		}

		survivors := set[:0:0]
		for _, s := range set {
			if keep[genKey(&s)] {
				survivors = append(survivors, s)
			}
		}
		set = survivors
	}
	stats.After = StatsOf(set)
	return set, stats
}

// oracleVerifyCoverage simulates every sequence of set against all of F.
func oracleVerifyCoverage(c *netlist.Circuit, fl []faults.Fault, res *Result, set []Selected, cfg Config) []int {
	targIdx := make([]int, 0, res.NumTargets)
	targFl := make([]faults.Fault, 0, res.NumTargets)
	for i := range fl {
		if res.DetectedByT0[i] {
			targIdx = append(targIdx, i)
			targFl = append(targFl, fl[i])
		}
	}
	covered := make([]bool, len(targFl))
	for _, s := range set {
		r := fsim.Run(c, targFl, expand.Compose(s.Seq, cfg.N, cfg.expandOps()))
		for k := range targFl {
			if r.Detected[k] {
				covered[k] = true
			}
		}
	}
	var missed []int
	for k, ok := range covered {
		if !ok {
			missed = append(missed, targIdx[k])
		}
	}
	return missed
}

// gatesOf returns the package-global gate evaluations f performs.
func gatesOf(f func()) int64 {
	before := fsim.Stats().GatesEvaluated
	f()
	return fsim.Stats().GatesEvaluated - before
}

func sameSelected(a, b []Selected) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Seq.Equal(b[i].Seq) || a[i].TargetFault != b[i].TargetFault {
			return false
		}
	}
	return true
}

// checkCompactAgainstOracle compacts res with the given passes through
// CompactSetPasses and the oracle and fails on any difference in the
// survivors (sequence, target, order) or the CompactStats counts, or if
// the memoised compaction evaluates more gates than the oracle.
func checkCompactAgainstOracle(t *testing.T, name string, c *netlist.Circuit, fl []faults.Fault, res *Result, cfg Config, enabled [4]bool) []Selected {
	t.Helper()
	var got, want []Selected
	var gs, ws CompactStats
	gotGates := gatesOf(func() { got, gs = CompactSetPasses(c, fl, res, cfg, enabled) })
	wantGates := gatesOf(func() { want, ws = oracleCompactSetPasses(c, fl, res, cfg, enabled) })
	if !sameSelected(got, want) {
		t.Errorf("%s passes %v: %d survivors differ from the oracle's %d", name, enabled, len(got), len(want))
	}
	if gs.Dropped != ws.Dropped || gs.Before != ws.Before || gs.After != ws.After {
		t.Errorf("%s passes %v: stats dropped %v %+v -> %+v, oracle %v %+v -> %+v",
			name, enabled, gs.Dropped, gs.Before, gs.After, ws.Dropped, ws.Before, ws.After)
	}
	if gotGates > wantGates {
		t.Errorf("%s passes %v: compaction evaluated %d gates, oracle %d", name, enabled, gotGates, wantGates)
	}
	return got
}

// checkVerifyAgainstOracle compares VerifyCoverage with the oracle on
// set: identical missed indices, and no more gates evaluated.
func checkVerifyAgainstOracle(t *testing.T, name string, c *netlist.Circuit, fl []faults.Fault, res *Result, set []Selected, cfg Config) []int {
	t.Helper()
	var got, want []int
	gotGates := gatesOf(func() { got = VerifyCoverage(c, fl, res, set, cfg) })
	wantGates := gatesOf(func() { want = oracleVerifyCoverage(c, fl, res, set, cfg) })
	if !slices.Equal(got, want) {
		t.Errorf("%s: VerifyCoverage missed %v, oracle %v", name, got, want)
	}
	if gotGates > wantGates {
		t.Errorf("%s: verification evaluated %d gates, oracle %d", name, gotGates, wantGates)
	}
	return got
}

// checkPostSelection runs both post-selection steps against their
// oracles: compaction with every pass, verification of the full set, of
// the compacted set, and of the compacted set with each survivor
// removed. The survivor the last pass kept last detected a fault no
// other survivor detects, so at least one removal must miss faults.
func checkPostSelection(t *testing.T, name string, c *netlist.Circuit, fl []faults.Fault, res *Result, cfg Config) {
	t.Helper()
	set := checkCompactAgainstOracle(t, name, c, fl, res, cfg, [4]bool{true, true, true, true})
	if missed := checkVerifyAgainstOracle(t, name+" full set", c, fl, res, res.Set, cfg); len(missed) != 0 {
		t.Errorf("%s: full set misses %v", name, missed)
	}
	if missed := checkVerifyAgainstOracle(t, name+" compacted", c, fl, res, set, cfg); len(missed) != 0 {
		t.Errorf("%s: compacted set misses %v", name, missed)
	}
	lost := false
	for drop := range set {
		rest := slices.Delete(slices.Clone(set), drop, drop+1)
		if missed := checkVerifyAgainstOracle(t, fmt.Sprintf("%s without survivor %d", name, drop), c, fl, res, rest, cfg); len(missed) != 0 {
			lost = true
		}
	}
	if len(set) > 0 && !lost {
		t.Errorf("%s: no single survivor removal missed a fault", name)
	}
}

// selectFor runs Procedure 1 with a small omission budget (compaction
// and verification do not depend on how short the sequences are).
func selectFor(t *testing.T, c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) *Result {
	t.Helper()
	cfg.MaxOmissionTrials = 20
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompactVerifyMatchOracleOnRegistry compares compaction and
// verification with their oracles on every registry circuit up to
// s1423, at n = 1, 2, 4.
func TestCompactVerifyMatchOracleOnRegistry(t *testing.T) {
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
			checkPostSelection(t, fmt.Sprintf("%s n=%d", name, n), c, fl, selectFor(t, c, fl, t0, cfg), cfg)
		}
	}
}

// TestCompactMatchesOracleAcrossPassesAndOps covers all 16 pass-enable
// subsets on s27, s298 and s526, and two ExpandOps subsets.
func TestCompactMatchesOracleAcrossPassesAndOps(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s526"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		t0 := vectors.RandomSequence(xrand.New(4), c.NumPIs(), 80)
		if name == "s27" {
			t0 = s27T0()
		}
		cfg := DefaultConfig(2)
		res := selectFor(t, c, fl, t0, cfg)
		for mask := 0; mask < 16; mask++ {
			var enabled [4]bool
			for p := range enabled {
				enabled[p] = mask&(1<<p) != 0
			}
			set := checkCompactAgainstOracle(t, name, c, fl, res, cfg, enabled)
			checkVerifyAgainstOracle(t, fmt.Sprintf("%s passes %v", name, enabled), c, fl, res, set, cfg)
		}
		for _, ops := range []expand.Ops{expand.OpRepeat, expand.OpRepeat | expand.OpComplement} {
			cfg := DefaultConfig(2)
			cfg.ExpandOps = ops
			checkPostSelection(t, fmt.Sprintf("%s ops %04b", name, ops), c, fl, selectFor(t, c, fl, t0, cfg), cfg)
		}
	}
}

// TestCompactMatchesOracleOnInflatedSet compacts the set of
// TestCompactDropsRedundantSequence (a copy of the last sequence placed
// first under a distinct key) through both paths.
func TestCompactMatchesOracleOnInflatedSet(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	res := selectFor(t, c, fl, t0, cfg)
	inflated := *res
	dup := res.Set[len(res.Set)-1]
	dup.TargetFault += 1000
	inflated.Set = append([]Selected{dup}, res.Set...)
	checkPostSelection(t, "inflated", c, fl, &inflated, cfg)
}

// TestVerifyMatchesOracleOnEmptyInputs covers an empty set (every target
// missed) and an empty F (nothing to miss).
func TestVerifyMatchesOracleOnEmptyInputs(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	res := selectFor(t, c, fl, t0, cfg)
	if missed := checkVerifyAgainstOracle(t, "empty set", c, fl, res, nil, cfg); len(missed) != res.NumTargets {
		t.Errorf("empty set misses %d faults, want all %d", len(missed), res.NumTargets)
	}
	noF := &Result{DetectedByT0: make([]bool, len(fl)), Set: res.Set}
	if missed := checkVerifyAgainstOracle(t, "empty F", c, fl, noF, res.Set, cfg); missed != nil {
		t.Errorf("empty F misses %v", missed)
	}
	checkCompactAgainstOracle(t, "empty F", c, fl, noF, cfg, [4]bool{true, true, true, true})
}

// TestCompactSharedTargetFault pins position-keyed bookkeeping: two
// different sequences built for one TargetFault compact exactly as the
// oracle compacts them under distinct keys in the same order.
func TestCompactSharedTargetFault(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	res := selectFor(t, c, fl, t0, cfg)
	if len(res.Set) < 2 {
		t.Fatalf("need two sequences, got %d", len(res.Set))
	}
	shared := *res
	shared.Set = slices.Clone(res.Set)
	shared.Set[1].TargetFault = shared.Set[0].TargetFault
	if shared.Set[0].Seq.Equal(shared.Set[1].Seq) {
		t.Fatal("the two sequences must differ")
	}
	// Distinct keys in (TargetFault, position) order for the oracle.
	keyed := shared
	keyed.Set = slices.Clone(shared.Set)
	for p := range keyed.Set {
		keyed.Set[p].TargetFault = keyed.Set[p].TargetFault*len(keyed.Set) + p
	}
	got, gs := CompactSet(c, fl, &shared, cfg)
	want, ws := oracleCompactSetPasses(c, fl, &keyed, cfg, [4]bool{true, true, true, true})
	if len(got) != len(want) || gs.Dropped != ws.Dropped {
		t.Fatalf("%d survivors (dropped %v), oracle %d (dropped %v)", len(got), gs.Dropped, len(want), ws.Dropped)
	}
	for i := range got {
		if !got[i].Seq.Equal(want[i].Seq) || got[i].TargetFault != want[i].TargetFault/len(keyed.Set) {
			t.Fatalf("survivor %d = %s (target %d), oracle %s (target %d)",
				i, got[i].Seq, got[i].TargetFault, want[i].Seq, want[i].TargetFault/len(keyed.Set))
		}
	}
	if missed := VerifyCoverage(c, fl, &shared, got, cfg); missed != nil {
		t.Errorf("missed %v", missed)
	}
}
