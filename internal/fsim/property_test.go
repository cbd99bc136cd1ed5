package fsim

import (
	"testing"
	"testing/quick"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// TestChunkingInvariance: splitting a sequence across any series of
// Extend calls must produce identical detection results — machine state
// carries exactly.
func TestChunkingInvariance(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	f := func(seed uint64, cuts [4]uint8) bool {
		seq := vectors.RandomSequence(xrand.New(seed), c.NumPIs(), 24)
		want := Run(c, fl, seq)

		inc := New(c, fl, Options{})
		prev := 0
		for _, cRaw := range cuts {
			cut := prev + int(cRaw%7)
			if cut > seq.Len() {
				cut = seq.Len()
			}
			inc.Extend(seq[prev:cut])
			prev = cut
		}
		inc.Extend(seq[prev:])
		got := inc.Result()
		for i := range fl {
			if got.Detected[i] != want.Detected[i] || got.DetTime[i] != want.DetTime[i] {
				return false
			}
		}
		return got.NumDetected == want.NumDetected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDetectionSubsetUnderConcatenation: appending vectors never loses a
// detection and never changes an established detection time.
func TestDetectionSubsetUnderConcatenation(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	rng := xrand.New(77)
	a := vectors.RandomSequence(rng, c.NumPIs(), 20)
	b := vectors.RandomSequence(rng, c.NumPIs(), 20)
	short := Run(c, fl, a)
	long := Run(c, fl, a.Concat(b))
	for i := range fl {
		if short.Detected[i] {
			if !long.Detected[i] {
				t.Fatalf("fault %d lost by extension", i)
			}
			if long.DetTime[i] != short.DetTime[i] {
				t.Fatalf("fault %d: det time moved %d -> %d", i, short.DetTime[i], long.DetTime[i])
			}
		}
	}
	if long.NumDetected < short.NumDetected {
		t.Fatal("extension reduced coverage")
	}
}

// TestEvaluateMatchesPeek: repeated look-ahead queries on one engine agree
// (the query is Evaluate; the name keeps the earlier Peek wrapper's), the
// divergence is non-negative, and from reset the predicted set is exactly
// what a committing Run detects.
func TestEvaluateMatchesPeek(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	inc := New(c, fl, Options{})
	seq := vectors.RandomSequence(xrand.New(5), c.NumPIs(), 10)
	newlyA, divA := inc.Evaluate(seq)
	newlyB, divB := inc.Evaluate(seq)
	if len(newlyA) != len(newlyB) || divA != divB {
		t.Fatalf("repeated Evaluate: (%d,%d) then (%d,%d)", len(newlyA), divA, len(newlyB), divB)
	}
	if divA < 0 {
		t.Fatalf("negative divergence %d", divA)
	}
	want := Run(c, fl, seq)
	if len(newlyA) != want.NumDetected {
		t.Fatalf("Evaluate found %d, Run detects %d", len(newlyA), want.NumDetected)
	}
	for _, fi := range newlyA {
		if !want.Detected[fi] {
			t.Fatalf("Evaluate reported fault %d that Run does not detect", fi)
		}
	}
}

// TestActiveRegionPropertyRandomNetlists is the randomized differential
// property: on deterministic pseudo-random circuits of varying shape, the
// active-region engine must match the full-evaluation reference and the
// two-machine Batch simulator over the uncollapsed fault universe (stems,
// gate-pin branches, and D-pin branches) under X-heavy stimuli.
func TestActiveRegionPropertyRandomNetlists(t *testing.T) {
	shapes := []iscas.Spec{
		{Name: "rnd-a", PIs: 4, POs: 3, DFFs: 4, Gates: 40, Synthetic: true, Seed: 101},
		{Name: "rnd-b", PIs: 6, POs: 5, DFFs: 9, Gates: 90, Synthetic: true, Seed: 202},
		{Name: "rnd-c", PIs: 3, POs: 2, DFFs: 6, Gates: 55, Synthetic: true, Seed: 303},
	}
	for _, spec := range shapes {
		c, err := iscas.Synthesize(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		fl := faults.Universe(c)
		rng := xrand.New(spec.Seed)
		for trial := 0; trial < 3; trial++ {
			seq := xheavySequence(rng, c.NumPIs(), 12+rng.Intn(20))
			diffCheck(t, spec.Name, c, fl, seq)

			// Cross-check a deterministic sample of faults against the
			// two-machine simulator.
			active := Run(c, fl, seq)
			b := NewBatch(c)
			for i := trial; i < len(fl); i += 9 {
				if at := batchDetTime(b, fl[i], seq); at != active.DetTime[i] {
					t.Fatalf("%s trial %d fault %s: batch detects at %d, parallel at %d",
						spec.Name, trial, fl[i].Name(c), at, active.DetTime[i])
				}
			}
		}
	}
}
