package core

import (
	"testing"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// s27T0 is the paper's Table 2 test sequence for s27.
func s27T0() vectors.Sequence {
	return vectors.MustParseSequence("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011")
}

func s27Setup(t *testing.T) (*netlist.Circuit, []faults.Fault, vectors.Sequence) {
	t.Helper()
	c := iscas.S27()
	return c, faults.CollapsedUniverse(c), s27T0()
}

// TestS27WalkthroughWindow reproduces the deterministic part of the
// paper's §3.1 walkthrough: the first fault targeted by Procedure 1 has
// udet = 9 (the maximum), and Procedure 2 finds ustart = 6, i.e. the
// window T0[6,9] = (1001, 0000, 0000, 1011), exactly as in the paper.
func TestS27WalkthroughWindow(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	res, err := Select(c, fl, t0, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) == 0 {
		t.Fatal("empty selection")
	}
	first := res.Set[0]
	if first.UDet != 9 {
		t.Errorf("first target udet = %d, want 9", first.UDet)
	}
	if first.UStart != 6 {
		t.Errorf("first window ustart = %d, want 6 (paper: T0[6,9])", first.UStart)
	}
	window := t0.Subsequence(first.UStart, first.UDet)
	if !window.Equal(vectors.MustParseSequence("1001 0000 0000 1011")) {
		t.Errorf("window = %s, want 1001 0000 0000 1011", window)
	}
}

// TestS27CompleteCoverage verifies the paper's central guarantee on the
// worked example: the expanded versions of the selected sequences together
// detect all 32 faults T0 detects.
func TestS27CompleteCoverage(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	for _, n := range []int{1, 2, 4} {
		cfg := DefaultConfig(n)
		res, err := Select(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumTargets != 32 {
			t.Fatalf("n=%d: %d targets, want 32", n, res.NumTargets)
		}
		if missed := VerifyCoverage(c, fl, res, res.Set, cfg); len(missed) != 0 {
			t.Errorf("n=%d: faults missed by selected set: %v", n, missed)
		}
	}
}

// TestCoverageAcrossSeeds checks the guarantee holds regardless of the
// omission RNG.
func TestCoverageAcrossSeeds(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := Config{N: 1, Seed: seed, OmissionRestart: true}
		res, err := Select(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if missed := VerifyCoverage(c, fl, res, res.Set, cfg); len(missed) != 0 {
			t.Errorf("seed %d: missed %v", seed, missed)
		}
		// Every selected sequence's expansion detects its own target.
		b := fsim.NewBatch(c)
		for _, s := range res.Set {
			stored := fsim.Pack(s.Seq, c.NumPIs()).Whole()
			if b.FirstDetecting(fl[s.TargetFault], []fsim.Candidate{stored}, cfg.N, expand.AllOps) != 0 {
				t.Errorf("seed %d: sequence fails to detect its target %s",
					seed, fl[s.TargetFault].Name(c))
			}
		}
	}
}

func TestSelectionDeterministic(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(2)
	a, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Set) != len(b.Set) {
		t.Fatalf("|S| differs: %d vs %d", len(a.Set), len(b.Set))
	}
	for i := range a.Set {
		if !a.Set[i].Seq.Equal(b.Set[i].Seq) || a.Set[i].TargetFault != b.Set[i].TargetFault {
			t.Fatalf("sequence %d differs between runs", i)
		}
	}
}

// TestTargetsOrderedByDetectionTime verifies Procedure 1's fault-selection
// rule: targets are taken in decreasing first-detection time.
func TestTargetsOrderedByDetectionTime(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	res, err := Select(c, fl, t0, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Set); i++ {
		if res.Set[i].UDet > res.Set[i-1].UDet {
			t.Errorf("target %d has udet %d > previous %d", i, res.Set[i].UDet, res.Set[i-1].UDet)
		}
	}
}

func TestWindowsWithinT0(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	res, err := Select(c, fl, t0, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Set {
		if s.UStart < 0 || s.UDet >= t0.Len() || s.UStart > s.UDet {
			t.Errorf("invalid window [%d,%d]", s.UStart, s.UDet)
		}
		if s.Seq.Len() > s.UDet-s.UStart+1 {
			t.Errorf("sequence longer (%d) than its window [%d,%d]", s.Seq.Len(), s.UStart, s.UDet)
		}
		if s.Seq.Len() == 0 {
			t.Error("empty selected sequence")
		}
	}
}

// TestOmittedSequenceIsSubsequenceOfWindow: omission only removes vectors,
// so the stored sequence must be an ordered subsequence of its window.
func TestOmittedSequenceIsSubsequenceOfWindow(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	res, err := Select(c, fl, t0, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Set {
		window := t0.Subsequence(s.UStart, s.UDet)
		wi := 0
		for _, v := range s.Seq {
			found := false
			for wi < window.Len() {
				if window[wi].Equal(v) {
					found = true
					wi++
					break
				}
				wi++
			}
			if !found {
				t.Errorf("selected sequence %s is not an ordered subsequence of window %s", s.Seq, window)
				break
			}
		}
	}
}

func TestDisableOmission(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	cfg.DisableOmission = true
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Set {
		if s.Seq.Len() != s.UDet-s.UStart+1 {
			t.Errorf("with omission disabled, sequence length %d != window size %d",
				s.Seq.Len(), s.UDet-s.UStart+1)
		}
	}
	if missed := VerifyCoverage(c, fl, res, res.Set, cfg); len(missed) != 0 {
		t.Errorf("missed %v", missed)
	}
}

func TestSinglePassOmission(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := Config{N: 1, Seed: 3, OmissionRestart: false}
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if missed := VerifyCoverage(c, fl, res, res.Set, cfg); len(missed) != 0 {
		t.Errorf("missed %v", missed)
	}
}

func TestMaxOmissionTrialsBudget(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := DefaultConfig(1)
	cfg.MaxOmissionTrials = 1
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if missed := VerifyCoverage(c, fl, res, res.Set, cfg); len(missed) != 0 {
		t.Errorf("missed %v", missed)
	}
	// Budgeted runs must not use more simulations than unbudgeted ones.
	full, _ := Select(c, fl, t0, DefaultConfig(1))
	if res.Sims > full.Sims {
		t.Errorf("budgeted sims %d > unbudgeted %d", res.Sims, full.Sims)
	}
}

func TestSelectErrors(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	if _, err := Select(c, fl, nil, DefaultConfig(1)); err == nil {
		t.Error("empty T0 accepted")
	}
	if _, err := Select(c, fl, t0, Config{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Select(c, fl, vectors.MustParseSequence("01 10"), DefaultConfig(1)); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestFindSubsequenceRejectsUndetectedFault(t *testing.T) {
	c, fl, _ := s27Setup(t)
	// A sequence too short to detect late faults: use only the first
	// vector of T0, then ask for a fault it does not detect.
	short := s27T0().Subsequence(0, 0)
	base := fsim.Run(c, fl, short)
	target := -1
	for i := range fl {
		if !base.Detected[i] {
			target = i
			break
		}
	}
	if target < 0 {
		t.Skip("single vector detects everything (unexpected)")
	}
	sel, err := NewSelector(c, fl, short, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sel.FindSubsequence(target); err == nil {
		t.Error("FindSubsequence succeeded for a fault T0 does not detect")
	}
}

// TestSyntheticCircuitCoverage runs the full procedure on a synthetic
// benchmark with a random T0, checking the coverage guarantee at scale.
func TestSyntheticCircuitCoverage(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	t0 := vectors.RandomSequence(xrand.New(42), c.NumPIs(), 60)
	cfg := DefaultConfig(2)
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTargets == 0 {
		t.Fatal("random T0 detected nothing; circuit suspicious")
	}
	if missed := VerifyCoverage(c, fl, res, res.Set, cfg); len(missed) != 0 {
		t.Errorf("missed %d/%d faults", len(missed), res.NumTargets)
	}
	// The paper's headline: total stored length below |T0|, max stored
	// length far below. With a random (uncompacted) T0 the ratios are
	// looser, so only sanity-check direction.
	st := StatsOf(res.Set)
	if st.MaxLen > t0.Len() {
		t.Errorf("max len %d exceeds |T0| %d", st.MaxLen, t0.Len())
	}
}

func TestTargetOrderAblations(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	for _, order := range []TargetOrder{OrderMaxUDet, OrderMinUDet, OrderRandom} {
		cfg := DefaultConfig(1)
		cfg.TargetOrder = order
		res, err := Select(c, fl, t0, cfg)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if missed := VerifyCoverage(c, fl, res, res.Set, cfg); len(missed) != 0 {
			t.Errorf("order %d: missed %v", order, missed)
		}
	}
	// Min-udet ordering must produce non-decreasing target times.
	cfg := DefaultConfig(1)
	cfg.TargetOrder = OrderMinUDet
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Set); i++ {
		if res.Set[i].UDet < res.Set[i-1].UDet {
			t.Errorf("min-udet order violated at %d", i)
		}
	}
}

// TestExpandOpsSubsetsKeepGuarantee: the coverage guarantee must hold for
// every §2 manipulation subset (the first segment of any composition is S
// itself, so Procedure 2 always terminates with a detecting window).
func TestExpandOpsSubsetsKeepGuarantee(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	subsets := []expand.Ops{
		expand.OpRepeat,
		expand.OpRepeat | expand.OpComplement,
		expand.OpRepeat | expand.OpComplement | expand.OpShift,
		expand.AllOps,
		expand.OpComplement | expand.OpReverse,
	}
	for _, ops := range subsets {
		cfg := DefaultConfig(2)
		cfg.ExpandOps = ops
		res, err := Select(c, fl, t0, cfg)
		if err != nil {
			t.Fatalf("ops %04b: %v", ops, err)
		}
		if missed := VerifyCoverage(c, fl, res, res.Set, cfg); len(missed) != 0 {
			t.Errorf("ops %04b: missed %v", ops, missed)
		}
	}
}

// TestFewerOpsNeedMoreStorage: with weaker expansion the selected set
// should not become smaller than with the full expansion (usually it is
// strictly larger).
func TestFewerOpsNeedMoreStorage(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	full := DefaultConfig(2)
	res, err := Select(c, fl, t0, full)
	if err != nil {
		t.Fatal(err)
	}
	fullStats := StatsOf(res.Set)

	weak := DefaultConfig(2)
	weak.ExpandOps = expand.OpRepeat // repetition only
	wres, err := Select(c, fl, t0, weak)
	if err != nil {
		t.Fatal(err)
	}
	weakStats := StatsOf(wres.Set)
	if weakStats.TotalLen < fullStats.TotalLen {
		t.Errorf("repetition-only expansion stored less (%d) than the full expansion (%d)",
			weakStats.TotalLen, fullStats.TotalLen)
	}
}

func TestStatsOf(t *testing.T) {
	set := []Selected{
		{Seq: vectors.MustParseSequence("01 10 11")},
		{Seq: vectors.MustParseSequence("00")},
	}
	st := StatsOf(set)
	if st.NumSequences != 2 || st.TotalLen != 4 || st.MaxLen != 3 {
		t.Errorf("stats = %+v", st)
	}
	empty := StatsOf(nil)
	if empty.NumSequences != 0 || empty.TotalLen != 0 || empty.MaxLen != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}
