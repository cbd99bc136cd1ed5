package strategy

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

func s27Setup(t *testing.T) (*netlist.Circuit, []faults.Fault, vectors.Sequence) {
	t.Helper()
	c := iscas.S27()
	return c, faults.CollapsedUniverse(c),
		vectors.MustParseSequence("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011")
}

func testConfig(n int, seed uint64) Config {
	return Config{Core: core.Config{N: n, Seed: seed, OmissionRestart: true}}
}

func TestRegistry(t *testing.T) {
	want := []string{"anneal", "genetic", "greedy", "race", "restart"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range append(Concrete(), Race, "") {
		if !Valid(name) {
			t.Errorf("Valid(%q) = false", name)
		}
		s, err := Get(name)
		if err != nil {
			t.Errorf("Get(%q): %v", name, err)
		} else if name != "" && s.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, s.Name())
		}
	}
	if s, _ := Get(""); s == nil || s.Name() != Default {
		t.Errorf("Get(\"\") did not resolve to %q", Default)
	}
	if Valid("resyn2") {
		t.Error("Valid accepted an unknown name")
	}
	if _, err := Get("resyn2"); err == nil {
		t.Error("Get accepted an unknown name")
	}
	if Concrete()[0] != Default {
		t.Errorf("portfolio order must lead with the baseline, got %v", Concrete())
	}
}

// TestGreedyMatchesCoreSelect pins the baseline adapter bit-for-bit
// against core.Select: same stored subsequences, same windows, same
// detection accounting, for several seeds and repetition counts.
func TestGreedyMatchesCoreSelect(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	for _, n := range []int{1, 2} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := core.Config{N: n, Seed: seed, OmissionRestart: true}
			want, err := core.Select(c, fl, t0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Get(Default)
			if err != nil {
				t.Fatal(err)
			}
			got, err := out.Select(c, fl, t0, Config{Core: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Result, want) {
				t.Fatalf("n=%d seed=%d: greedy strategy diverged from core.Select", n, seed)
			}
			if got.Winner != "greedy" || got.Trials != 1 {
				t.Fatalf("greedy outcome = (%q, %d trials), want (greedy, 1)", got.Winner, got.Trials)
			}
		}
	}
}

// TestStrategiesCoverAndDetermine verifies, for every registered
// strategy, the two portfolio invariants: full coverage of the faults T0
// detects, and bit-identical results when run twice with the same seed.
func TestStrategiesCoverAndDetermine(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(1, 7)
			first, err := s.Select(c, fl, t0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first.Result.NumTargets != 32 {
				t.Fatalf("%d targets, want 32", first.Result.NumTargets)
			}
			if missed := core.VerifyCoverage(c, fl, first.Result, first.Result.Set, cfg.Core); len(missed) != 0 {
				t.Errorf("faults missed: %v", missed)
			}
			if first.Trials < 1 {
				t.Errorf("Trials = %d", first.Trials)
			}
			again, err := s.Select(c, fl, t0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Error("same seed produced different outcomes")
			}
			// A different seed must still cover everything.
			other, err := s.Select(c, fl, t0, testConfig(1, 8))
			if err != nil {
				t.Fatal(err)
			}
			if missed := core.VerifyCoverage(c, fl, other.Result, other.Result.Set, cfg.Core); len(missed) != 0 {
				t.Errorf("seed 8: faults missed: %v", missed)
			}
		})
	}
}

// TestSearchersNeverLoseToTheirBaselineTrial: restart, anneal, and
// genetic all seed their search with the greedy order, so their final
// stored set can never cost more than that trial's under the strategy
// comparator.
func TestSearchersNeverLoseToTheirBaselineTrial(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := testConfig(1, 3)
	e, err := newEvaluator(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.eval(e.greedyOrder())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"restart", "anneal", "genetic"} {
		s, _ := Get(name)
		out, err := s.Select(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if better(baseline, out.Result) {
			t.Errorf("%s returned a worse set than its own baseline trial", name)
		}
	}
}

// TestRaceWinner pins the meta-strategy's choice to the canonical
// comparator: the race must return exactly the outcome of the best
// concrete leg, post-compaction storage deciding, portfolio order
// breaking ties.
func TestRaceWinner(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	cfg := testConfig(1, 5)
	var (
		wantWinner string
		wantScore  core.Stats
		trials     int
	)
	for _, name := range Concrete() {
		s, _ := Get(name)
		o, err := s.Select(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		trials += o.Trials
		score := raceScore(c, fl, o.Result, cfg)
		if wantWinner == "" || score.Less(wantScore) {
			wantWinner, wantScore = name, score
		}
	}
	r, _ := Get(Race)
	out, err := r.Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != wantWinner {
		t.Errorf("race winner = %q, want %q", out.Winner, wantWinner)
	}
	if out.Trials != trials {
		t.Errorf("race trials = %d, want the portfolio sum %d", out.Trials, trials)
	}
	if got := raceScore(c, fl, out.Result, cfg); got != wantScore {
		t.Errorf("race result scores %+v, want %+v", got, wantScore)
	}
}

// TestPermSeedIsPureAndOrderSensitive: the per-order omission seed must
// depend only on (seed, order) — not on trial history — and distinguish
// permutations, prefixes, and seeds.
func TestPermSeedIsPureAndOrderSensitive(t *testing.T) {
	a := permSeed(1, []int{3, 1, 2})
	if b := permSeed(1, []int{3, 1, 2}); a != b {
		t.Error("permSeed is not a pure function")
	}
	if permSeed(1, []int{1, 3, 2}) == a {
		t.Error("permutation did not change the seed")
	}
	if permSeed(2, []int{3, 1, 2}) == a {
		t.Error("config seed did not change the seed")
	}
	if permSeed(1, []int{3, 1}) == a {
		t.Error("prefix collided with the full order")
	}
}

// TestInterruptPropagates: a firing Interrupt hook must surface
// core.ErrInterrupted from every strategy.
func TestInterruptPropagates(t *testing.T) {
	c, fl, t0 := s27Setup(t)
	for _, name := range Names() {
		cfg := testConfig(1, 1)
		cfg.Core.Interrupt = func() bool { return true }
		s, _ := Get(name)
		if _, err := s.Select(c, fl, t0, cfg); !errors.Is(err, core.ErrInterrupted) {
			t.Errorf("%s: err = %v, want core.ErrInterrupted", name, err)
		}
	}
}

// TestOrderCrossoverIsPermutation fuzzes OX lightly: every child must be
// a permutation of its parents' gene set.
func TestOrderCrossoverIsPermutation(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + trial%9
		pa, pb := rng.Perm(n), rng.Perm(n)
		child := orderCrossover(pa, pb, rng)
		seen := make(map[int]bool, n)
		for _, g := range child {
			if g < 0 || g >= n || seen[g] {
				t.Fatalf("trial %d: child %v is not a permutation of 0..%d (pa=%v pb=%v)", trial, child, n-1, pa, pb)
			}
			seen[g] = true
		}
	}
}

func ExampleGet() {
	s, _ := Get("greedy")
	fmt.Println(s.Name())
	// Output: greedy
}
