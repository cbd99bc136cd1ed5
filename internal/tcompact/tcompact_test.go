package tcompact

import (
	"errors"
	"testing"

	"seqbist/internal/atpg"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

func TestCompactPreservesCoverageS27(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	compacted, st := Compact(c, fl, gen.Seq)
	if st.OriginalLen != gen.Seq.Len() || st.CompactedLen != compacted.Len() {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if compacted.Len() > gen.Seq.Len() {
		t.Errorf("compaction grew the sequence: %d -> %d", gen.Seq.Len(), compacted.Len())
	}
	before := fsim.Run(c, fl, gen.Seq)
	after := fsim.Run(c, fl, compacted)
	if after.NumDetected < before.NumDetected {
		t.Errorf("coverage dropped: %d -> %d", before.NumDetected, after.NumDetected)
	}
}

func TestCompactedIsSubsequence(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	t0 := vectors.RandomSequence(xrand.New(5), c.NumPIs(), 40)
	compacted, _ := Compact(c, fl, t0)
	// Every vector of the compacted sequence appears in t0 in order.
	ti := 0
	for _, v := range compacted {
		found := false
		for ti < t0.Len() {
			if t0[ti].Equal(v) {
				found = true
				ti++
				break
			}
			ti++
		}
		if !found {
			t.Fatalf("compacted sequence is not an ordered subsequence of T0")
		}
	}
}

func TestCompactReducesRedundantSequence(t *testing.T) {
	// A sequence padded with repeats of its own vectors should shrink.
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	base := vectors.MustParseSequence("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011")
	padded := base.Concat(base).Concat(base)
	compacted, st := Compact(c, fl, padded)
	if compacted.Len() >= padded.Len() {
		t.Errorf("no reduction: %d -> %d", padded.Len(), compacted.Len())
	}
	if st.Ratio() >= 1.0 {
		t.Errorf("ratio = %v", st.Ratio())
	}
	// Coverage identical to the padded sequence.
	before := fsim.Run(c, fl, padded)
	after := fsim.Run(c, fl, compacted)
	for i := range fl {
		if before.Detected[i] && !after.Detected[i] {
			t.Errorf("fault %s lost by compaction", fl[i].Name(c))
		}
	}
}

func TestCompactEmpty(t *testing.T) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	out, st := Compact(c, fl, nil)
	if out.Len() != 0 || st.OriginalLen != 0 || st.CompactedLen != 0 {
		t.Errorf("empty input mishandled: %v %+v", out, st)
	}
}

func TestCompactSyntheticCircuit(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	t0 := vectors.RandomSequence(xrand.New(11), c.NumPIs(), 80)
	compacted, st := Compact(c, fl, t0)
	before := fsim.Run(c, fl, t0)
	after := fsim.Run(c, fl, compacted)
	if after.NumDetected < before.NumDetected {
		t.Errorf("coverage dropped: %d -> %d", before.NumDetected, after.NumDetected)
	}
	if st.Targets != before.NumDetected {
		t.Errorf("targets %d, want %d", st.Targets, before.NumDetected)
	}
	t.Logf("s298 random T0: %d -> %d vectors (ratio %.2f)",
		st.OriginalLen, st.CompactedLen, st.Ratio())
}

func TestStatsRatio(t *testing.T) {
	if (Stats{}).Ratio() != 0 {
		t.Error("zero stats ratio not 0")
	}
	if (Stats{OriginalLen: 10, CompactedLen: 5}).Ratio() != 0.5 {
		t.Error("ratio wrong")
	}
}

// TestCompactInterruptible checks the cancellation hook: a hook firing on
// poll k+1 stops compaction with ErrInterrupted after k targets and
// simulates nothing once it fired; a hook that never fires changes
// nothing.
func TestCompactInterruptible(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: 1, MaxLen: 600})
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt := Compact(c, fl, gen.Seq)
	targets := 0
	got, gotSt, err := CompactInterruptible(c, fl, gen.Seq, func() bool { targets++; return false })
	if err != nil || !got.Equal(want) || gotSt != wantSt {
		t.Fatalf("silent hook: err %v, stats %+v; without hook %+v", err, gotSt, wantSt)
	}
	if targets <= 3 {
		t.Fatalf("only %d targets polled; the test needs more than 3", targets)
	}
	for _, k := range []int{0, 1, 3} {
		polls := 0
		var firedAt int64
		out, _, err := CompactInterruptible(c, fl, gen.Seq, func() bool {
			polls++
			if polls > k {
				firedAt = fsim.PatternsApplied()
				return true
			}
			return false
		})
		if !errors.Is(err, ErrInterrupted) || out != nil {
			t.Fatalf("k=%d: CompactInterruptible = %v, %v; want nil, ErrInterrupted", k, out, err)
		}
		if polls != k+1 {
			t.Errorf("k=%d: hook polled %d times, want %d", k, polls, k+1)
		}
		if after := fsim.PatternsApplied(); after != firedAt {
			t.Errorf("k=%d: %d patterns simulated after the hook fired", k, after-firedAt)
		}
	}
}

// TestCompactFromATPGRecord checks that compaction started from ATPG's
// own detection record returns exactly what Compact returns after
// re-simulating the generated sequence, including its stats.
func TestCompactFromATPGRecord(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s344", "s526"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		for seed := uint64(1); seed <= 3; seed++ {
			gen, err := atpg.Generate(c, fl, atpg.Config{Seed: seed, MaxLen: 300})
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt := Compact(c, fl, gen.Seq)
			det := fsim.Result{Detected: gen.Detected, DetTime: gen.DetTime, NumDetected: gen.NumDetected}
			got, gotSt, err := CompactFrom(c, fl, gen.Seq, det, nil)
			if err != nil || !got.Equal(want) || gotSt != wantSt {
				t.Errorf("%s seed %d: CompactFrom len %d stats %+v err %v; Compact len %d stats %+v",
					name, seed, got.Len(), gotSt, err, want.Len(), wantSt)
			}
		}
	}
}
