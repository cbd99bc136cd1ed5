package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// TestInterruptStopsSelection checks the cancellation hook: an Interrupt
// that fires immediately aborts Procedure 1 with ErrInterrupted, and one
// that never fires leaves the result unchanged.
func TestInterruptStopsSelection(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	t0 := vectors.RandomSequence(xrand.New(1), c.NumPIs(), 120)

	cfg := DefaultConfig(2)
	cfg.MaxOmissionTrials = 50
	cfg.Interrupt = func() bool { return true }
	if _, err := Select(c, fl, t0, cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Select with firing Interrupt: err = %v, want ErrInterrupted", err)
	}

	cfg.Interrupt = func() bool { return false }
	res, err := Select(c, fl, t0, cfg)
	if err != nil {
		t.Fatalf("Select with quiet Interrupt: %v", err)
	}
	base, err := Select(c, fl, t0, DefaultConfigWithTrials(2, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != len(base.Set) {
		t.Fatalf("quiet Interrupt changed the selection: %d vs %d sequences",
			len(res.Set), len(base.Set))
	}
}

// DefaultConfigWithTrials mirrors the cfg used above without the hook.
func DefaultConfigWithTrials(n, trials int) Config {
	cfg := DefaultConfig(n)
	cfg.MaxOmissionTrials = trials
	return cfg
}

// TestInterruptDuringOmission fires the cancellation hook after k polls
// for every k up to past the end of the run, on a delay line whose
// targets each take two window batches and two omission batches. Every
// firing must end selection with ErrInterrupted, and no candidate batch
// may start after the hook fired: the trial count stays where it was.
func TestInterruptDuringOmission(t *testing.T) {
	c := delayLine(t, 100)
	fl := faults.CollapsedUniverse(c)
	t0 := vectors.RandomSequence(xrand.New(6), 2, 140)
	cfg := DefaultConfig(1)
	cfg.ExpandOps = expand.OpRepeat

	// Per target: one poll before Procedure 2, one per window batch (101
	// windows: 64 + 37), one per omission batch (101 rejected
	// omissions: 64 + 37). Poll 5 is the second omission batch of the
	// first target.
	const pollsPerTarget = 5
	for k := 1; k <= 3*pollsPerTarget; k++ {
		var sel *Selector
		polls, simsAtFire := 0, -1
		cfg.Interrupt = func() bool {
			polls++
			if polls == k {
				simsAtFire = sel.Sims()
			}
			return polls >= k
		}
		var err error
		sel, err = NewSelector(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sel.Run(); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("k=%d: err = %v, want ErrInterrupted", k, err)
		}
		if sel.Sims() != simsAtFire {
			t.Fatalf("k=%d: %d trials when the hook fired, %d after: a batch started after the interrupt",
				k, simsAtFire, sel.Sims())
		}
		if k == pollsPerTarget && simsAtFire != 101+64 {
			t.Fatalf("k=%d: fired after %d trials, want 101 windows + one omission batch of 64", k, simsAtFire)
		}
	}
}

// TestInterruptLeavesMemoClean fires the cancellation hook after k polls
// for every k along one RunOrder on the delay line, then reruns the same
// order and seed on the same Selector with the hook quiet. The rerun
// reads whatever the interrupted run left in the detection and window
// memos, and must still equal a fresh Selector's run field for field:
// an interrupted window search or omission scan stores nothing stale.
func TestInterruptLeavesMemoClean(t *testing.T) {
	c := delayLine(t, 100)
	fl := faults.CollapsedUniverse(c)
	t0 := vectors.RandomSequence(xrand.New(6), 2, 140)
	cfg := DefaultConfig(1)
	cfg.ExpandOps = expand.OpRepeat
	const seed = 7

	polls, fireAt := 0, 0
	cfg.Interrupt = func() bool {
		polls++
		return fireAt > 0 && polls >= fireAt
	}
	fresh, err := NewSelector(c, fl, t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := maxUDetOrder(fresh)
	slices.Reverse(order)
	fresh.Reseed(seed)
	want, err := fresh.RunOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	total := polls
	if total < 10 {
		t.Fatalf("a quiet run polled only %d times", total)
	}

	for k := 1; k <= total; k++ {
		sel, err := NewSelector(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		polls, fireAt = 0, k
		sel.Reseed(seed)
		if _, err := sel.RunOrder(order); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("k=%d: err = %v, want ErrInterrupted", k, err)
		}
		fireAt = 0
		sel.Reseed(seed)
		got, err := sel.RunOrder(order)
		if err != nil {
			t.Fatalf("k=%d: rerun: %v", k, err)
		}
		checkSameResult(t, fmt.Sprintf("k=%d rerun", k), got, want)
	}
}
