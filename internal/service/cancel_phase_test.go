package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"seqbist/internal/iscas"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// The pipeline phases after selection, in run order, named by the
// function that polls the job's context on their behalf.
var latePhases = []string{
	"seqbist/internal/core.CompactSetPasses",
	"seqbist/internal/core.VerifyCoverage",
	"seqbist/internal/bist.(*Session).RunGolden",
}

// phaseCtx is a job context that counts its polls per late phase and
// reports cancellation from the k-th poll by phase onwards. An empty
// phase never fires.
type phaseCtx struct {
	context.Context
	phase string
	k     int
	polls map[string]int
	fired bool
}

func newPhaseCtx(phase string, k int) *phaseCtx {
	return &phaseCtx{Context: context.Background(), phase: phase, k: k, polls: make(map[string]int)}
}

func (c *phaseCtx) Err() error {
	if p := pollingPhase(); p != "" {
		c.polls[p]++
		if p == c.phase && c.polls[p] >= c.k {
			c.fired = true
		}
	}
	if c.fired {
		return context.Canceled
	}
	return nil
}

// pollingPhase returns the late phase on the caller's stack, or "".
func pollingPhase() string {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)])
	for {
		f, more := frames.Next()
		for _, p := range latePhases {
			if f.Function == p {
				return p
			}
		}
		if !more {
			return ""
		}
	}
}

// checkCancelDuring cancels an s298 job with a supplied T0 at the first,
// a middle and the last poll phase makes in a quiet run. Each canceled
// run must return the context's error and no Result, so the service
// writes no result record for it, and no later phase may poll. A quiet
// context must leave the Result as context.Background leaves it.
func checkCancelDuring(t *testing.T, phase string) {
	t.Helper()
	c := iscas.MustLoad("s298")
	t0 := vectors.RandomSequence(xrand.New(1), c.NumPIs(), 120)
	cfg := GenConfig{N: 2, Seed: 1, MaxOmissionTrials: 40}.withDefaults()
	want, err := synthesize(context.Background(), c, t0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	quiet := newPhaseCtx("", 0)
	got, err := synthesize(quiet, c, t0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got.ElapsedMS, want.ElapsedMS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a context that never fires changed the Result")
	}
	total := quiet.polls[phase]
	if total == 0 {
		t.Fatalf("%s never polled the job's context", phase)
	}
	for _, k := range []int{1, (total + 1) / 2, total} {
		ctx := newPhaseCtx(phase, k)
		res, err := synthesize(ctx, c, t0, cfg, nil)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("canceled at poll %d of %d: Result %v, err %v; want no Result and context.Canceled", k, total, res != nil, err)
		}
		if ctx.polls[phase] != k {
			t.Errorf("canceled at poll %d of %d: the phase polled %d times", k, total, ctx.polls[phase])
		}
		later := false
		for _, p := range latePhases {
			if later && ctx.polls[p] != 0 {
				t.Errorf("canceled at poll %d of %d: %s ran after the cancellation", k, total, p)
			}
			later = later || p == phase
		}
	}
}

func TestCancelDuringCompaction(t *testing.T)   { checkCancelDuring(t, latePhases[0]) }
func TestCancelDuringVerification(t *testing.T) { checkCancelDuring(t, latePhases[1]) }
func TestCancelDuringBISTSession(t *testing.T)  { checkCancelDuring(t, latePhases[2]) }
