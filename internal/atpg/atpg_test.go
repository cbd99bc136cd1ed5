package atpg

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
)

// TestGoldenSequences pins the generator's exact output for fixed seeds.
// The candidate builders write into pooled buffers but are required to
// consume the random stream of the historical allocating builders
// bit-for-bit, so T0s — and everything derived from them downstream —
// stay stable across engine rewrites. The hashes were captured from the
// pre-pooling, pre-active-region implementation.
func TestGoldenSequences(t *testing.T) {
	golden := map[string]string{
		"s27":  "546e1303050a170f",
		"s298": "dc1492231bf31bed",
		"s382": "f4b00f07e9785bf5",
	}
	for name, want := range golden {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		res, err := Generate(c, fl, Config{Seed: 1, MaxLen: 600})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(res.Seq.String()))
		if got := fmt.Sprintf("%x", sum[:8]); got != want {
			t.Errorf("%s: T0 hash %s, want golden %s (len=%d det=%d)",
				name, got, want, res.Seq.Len(), res.NumDetected)
		}
	}
}

func TestS27FullCoverage(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	res, err := Generate(c, fl, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDetected != len(fl) {
		t.Fatalf("ATPG detected %d/%d faults on s27", res.NumDetected, len(fl))
	}
	if res.Seq.Len() == 0 {
		t.Fatal("empty sequence")
	}
}

// TestResultConsistentWithFsim re-simulates the generated sequence and
// checks the recorded detection data matches exactly.
func TestResultConsistentWithFsim(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	res, err := Generate(c, fl, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := fsim.Run(c, fl, res.Seq)
	if check.NumDetected != res.NumDetected {
		t.Fatalf("re-simulation detected %d, ATPG recorded %d", check.NumDetected, res.NumDetected)
	}
	for i := range fl {
		if check.Detected[i] != res.Detected[i] || check.DetTime[i] != res.DetTime[i] {
			t.Fatalf("fault %d: re-sim (%v,%d) vs recorded (%v,%d)", i,
				check.Detected[i], check.DetTime[i], res.Detected[i], res.DetTime[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	a, _ := Generate(c, fl, Config{Seed: 7})
	b, _ := Generate(c, fl, Config{Seed: 7})
	if !a.Seq.Equal(b.Seq) {
		t.Error("generation not deterministic for equal seeds")
	}
	d, _ := Generate(c, fl, Config{Seed: 8})
	if a.Seq.Equal(d.Seq) {
		t.Error("different seeds produced identical sequences")
	}
}

func TestMaxLenRespected(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	res, err := Generate(c, fl, Config{Seed: 3, MaxLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq.Len() > 10 {
		t.Errorf("sequence length %d exceeds MaxLen 10", res.Seq.Len())
	}
}

func TestSyntheticCoverageReasonable(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	res, err := Generate(c, fl, Config{Seed: 298})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.5 {
		t.Errorf("coverage %.2f on synthetic s298; generator too weak", res.Coverage())
	}
	t.Logf("s298: coverage %.2f%% with |T0|=%d in %d rounds",
		100*res.Coverage(), res.Seq.Len(), res.Rounds)
}

func TestCoverageValue(t *testing.T) {
	r := &Result{Detected: make([]bool, 4), NumDetected: 2}
	if r.Coverage() != 0.5 {
		t.Errorf("coverage = %v", r.Coverage())
	}
	empty := &Result{}
	if empty.Coverage() != 0 {
		t.Error("empty coverage not 0")
	}
}

func TestCandidateGenerators(t *testing.T) {
	rng := testRNG()
	pool := newCandPool(4, 6, 10)
	walk := pool.makeCandidate(rng, 1, 10, nil) // slot 1: walk strategy
	if walk.Len() != 10 || walk.Width() != 6 {
		t.Errorf("walk candidate %dx%d", walk.Len(), walk.Width())
	}
	hold := pool.makeCandidate(rng, 2, 10, nil) // slot 2: hold strategy
	if hold.Len() != 10 {
		t.Errorf("hold candidate length %d", hold.Len())
	}
	// Hold candidates repeat vectors.
	repeats := 0
	for i := 1; i < hold.Len(); i++ {
		if hold[i].Equal(hold[i-1]) {
			repeats++
		}
	}
	if repeats == 0 {
		t.Error("hold candidate has no held vectors")
	}
}

// TestInterrupt checks that the hook is polled once per round, before
// the round's work: when it fires on poll k+1, Generate returns
// ErrInterrupted after exactly k rounds and simulates nothing after the
// hook fired.
func TestInterrupt(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	for _, k := range []int{0, 1, 5} {
		polls := 0
		var firedAt int64
		res, err := Generate(c, fl, Config{Seed: 1, MaxLen: 600, Interrupt: func() bool {
			polls++
			if polls > k {
				firedAt = fsim.PatternsApplied()
				return true
			}
			return false
		}})
		if !errors.Is(err, ErrInterrupted) || res != nil {
			t.Fatalf("k=%d: Generate = %v, %v; want nil, ErrInterrupted", k, res, err)
		}
		if polls != k+1 {
			t.Errorf("k=%d: hook polled %d times, want %d", k, polls, k+1)
		}
		if after := fsim.PatternsApplied(); after != firedAt {
			t.Errorf("k=%d: %d patterns simulated after the hook fired", k, after-firedAt)
		}
	}
	// A hook that never fires changes nothing.
	want, err := Generate(c, fl, Config{Seed: 1, MaxLen: 600})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(c, fl, Config{Seed: 1, MaxLen: 600, Interrupt: func() bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Seq.Equal(want.Seq) || got.Rounds != want.Rounds || got.Rounds <= 5 {
		t.Errorf("silent hook: %d rounds, len %d; without hook %d rounds, len %d",
			got.Rounds, got.Seq.Len(), want.Rounds, want.Seq.Len())
	}
}
