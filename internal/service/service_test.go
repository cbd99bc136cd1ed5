package service

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
)

// fastSpec is a small job that completes in milliseconds.
func fastSpec(circuit string, seed uint64) JobSpec {
	return JobSpec{
		Circuit: circuit,
		Config: GenConfig{
			N:                 2,
			Seed:              seed,
			ATPGMaxLen:        300,
			MaxOmissionTrials: 40,
		},
	}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, svc *Service, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish within %v (state %s)", id, timeout, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentJobsWithCacheHits is the acceptance check for the service
// core: ≥8 synthesis jobs in flight at once on a worker pool, each
// producing a correct, deterministic result (duplicate specs must agree
// exactly), and a full resubmission wave afterwards served from the
// content-addressed cache.
func TestConcurrentJobsWithCacheHits(t *testing.T) {
	svc := New(Config{Workers: 8, QueueDepth: 64})
	defer svc.Close()

	// 12 jobs: 6 distinct specs, each submitted twice concurrently.
	specs := make([]JobSpec, 0, 12)
	for seed := uint64(1); seed <= 3; seed++ {
		specs = append(specs, fastSpec("s27", seed), fastSpec("s298", seed))
	}
	specs = append(specs, specs...)

	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := svc.Submit(specs[i])
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	results := make([]*Result, len(specs))
	for i, id := range ids {
		st := waitTerminal(t, svc, id, 60*time.Second)
		if st.State != StateDone {
			t.Fatalf("job %s (%s seed %d): state %s, error %q",
				id, specs[i].Circuit, specs[i].Config.Seed, st.State, st.Error)
		}
		res, err := svc.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}

	// Per-job correctness: the selection's coverage invariant holds and
	// the bookkeeping is consistent.
	for i, res := range results {
		if res.Circuit != specs[i].Circuit {
			t.Errorf("job %d: circuit %q, want %q", i, res.Circuit, specs[i].Circuit)
		}
		if res.DetectedByT0 <= 0 || res.NumSequences <= 0 || res.TotalLen <= 0 {
			t.Errorf("job %d: empty result %+v", i, res)
		}
		if res.TotalLen > res.T0Len {
			t.Errorf("job %d: stored length %d exceeds |T0|=%d", i, res.TotalLen, res.T0Len)
		}
		if len(res.Sequences) != res.NumSequences {
			t.Errorf("job %d: %d sequences, header says %d", i, len(res.Sequences), res.NumSequences)
		}
	}

	// Determinism: the duplicate submission of every spec must agree
	// field for field (timing excluded).
	half := len(specs) / 2
	for i := 0; i < half; i++ {
		a, b := *results[i], *results[i+half]
		a.ElapsedMS, b.ElapsedMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("spec %d: duplicate submissions produced different results", i)
		}
	}

	// Resubmission wave: every spec is now cached.
	for i := 0; i < half; i++ {
		st, err := svc.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !st.CacheHit || st.State != StateDone {
			t.Fatalf("resubmit %d: cache_hit=%v state=%s, want hit+done", i, st.CacheHit, st.State)
		}
		res, err := svc.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		// The cache holds whichever duplicate finished last; everything
		// except wall time must match.
		a, b := *res, *results[i]
		a.ElapsedMS, b.ElapsedMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("resubmit %d: cached result differs", i)
		}
	}
	if st := svc.Stats(); st.Cache.Hits < int64(half) {
		t.Fatalf("cache hits = %d, want >= %d", st.Cache.Hits, half)
	}
}

// TestCancellation covers both cancellation paths: a queued job flips to
// canceled before any work happens, and a running job is interrupted
// inside Procedure 1 well before it would have completed.
func TestCancellation(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	defer svc.Close()

	// A long job (several seconds even on fast hardware: a 1500-gate
	// circuit with unlimited omission) to occupy the only worker.
	long, err := svc.Submit(JobSpec{
		Circuit: "s1423",
		Config:  GenConfig{N: 8, Seed: 1, ATPGMaxLen: 300},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Queued-path: the worker is busy, so this job sits in the queue.
	queued, err := svc.Submit(fastSpec("s27", 9))
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("canceled queued job: state %s, want %s", st.State, StateCanceled)
	}
	if _, err := svc.Result(queued.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("result of canceled job: err = %v, want ErrNotDone", err)
	}

	// Running-path: wait for the long job to start, then cancel it. The
	// Interrupt hook must abort it far faster than the full pipeline.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := svc.Status(long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("long job finished before it could be canceled (state %s)", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := svc.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, svc, long.ID, 60*time.Second)
	if st.State != StateCanceled {
		t.Fatalf("canceled running job: state %s, error %q", st.State, st.Error)
	}

	// The worker must be healthy afterwards: a fresh job still runs.
	ok, err := svc.Submit(fastSpec("s27", 10))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, svc, ok.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("post-cancel job: state %s, error %q", st.State, st.Error)
	}
}

// TestCancellationDuringATPG cancels a running job that has no supplied
// T0 once ATPG has started simulating (generating the s1423 T0 takes
// seconds). The job's status flips to canceled at once; the run itself
// stops at ATPG's next per-round poll of the job's context, which frees
// the only worker, so a small job submitted after the cancel must finish
// within a second of it.
func TestCancellationDuringATPG(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	defer svc.Close()
	before := fsim.PatternsApplied()
	job, err := svc.Submit(JobSpec{Circuit: "s1423", Config: GenConfig{N: 4, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing else simulates in this process, so the first applied
	// pattern is the job's ATPG at work.
	deadline := time.Now().Add(30 * time.Second)
	for fsim.PatternsApplied() == before {
		if st, err := svc.Status(job.ID); err != nil || st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("ATPG never started (state %s, err %v)", st.State, err)
		}
		time.Sleep(time.Millisecond)
	}
	canceled := time.Now()
	if st, err := svc.Cancel(job.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel: state %s, err %v", st.State, err)
	}
	next, err := svc.Submit(fastSpec("s27", 11))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, svc, next.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("job after the cancel: state %s, error %q", st.State, st.Error)
	}
	if took := time.Since(canceled); took > time.Second {
		t.Errorf("the canceled ATPG run held the worker for %v, want under 1s", took)
	}
}

// TestSubmitValidation exercises the request validation paths.
func TestSubmitValidation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	cases := []struct {
		name string
		spec JobSpec
	}{
		{"empty", JobSpec{}},
		{"both sources", JobSpec{Circuit: "s27", Bench: iscas.S27Source}},
		{"unknown circuit", JobSpec{Circuit: "s999999"}},
		{"bad netlist", JobSpec{Bench: "INPUT(G0"}},
		{"bad t0 width", JobSpec{Circuit: "s27", T0: "01 10"}},
		{"unparsable t0", JobSpec{Circuit: "s27", T0: "01q2"}},
	}
	for _, tc := range cases {
		if _, err := svc.Submit(tc.spec); err == nil {
			t.Errorf("%s: Submit accepted an invalid spec", tc.name)
		}
	}

	// An inline netlist upload is a first-class citizen.
	st, err := svc.Submit(JobSpec{
		Bench:  iscas.S27Source,
		Config: GenConfig{N: 1, Seed: 1, ATPGMaxLen: 200, MaxOmissionTrials: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, svc, st.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("bench upload job: state %s, error %q", st.State, st.Error)
	}
}

// TestQueueFull checks backpressure: with a single busy worker and a full
// queue, submissions are rejected rather than buffered without bound.
func TestQueueFull(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	defer svc.Close()

	// Occupy the worker, then the one queue slot. Distinct seeds keep the
	// cache out of the picture.
	if _, err := svc.Submit(JobSpec{
		Circuit: "s526",
		Config:  GenConfig{N: 8, Seed: 1, ATPGMaxLen: 1500},
	}); err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for seed := uint64(2); seed < 12; seed++ {
		if _, err := svc.Submit(fastSpec("s27", seed)); errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}
}

// TestClosedService checks that submissions after Close are refused.
func TestClosedService(t *testing.T) {
	svc := New(Config{Workers: 1})
	svc.Close()
	if _, err := svc.Submit(fastSpec("s27", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestJobRetention checks that terminal job records are evicted beyond
// the MaxJobs bound, so a long-lived daemon does not grow without limit.
func TestJobRetention(t *testing.T) {
	svc := New(Config{Workers: 2, MaxJobs: 4})
	defer svc.Close()

	var last Status
	for seed := uint64(1); seed <= 10; seed++ {
		st, err := svc.Submit(fastSpec("s27", seed))
		if err != nil {
			t.Fatal(err)
		}
		last = waitTerminal(t, svc, st.ID, 60*time.Second)
	}
	jobs := svc.Jobs()
	if len(jobs) > 4 {
		t.Fatalf("%d job records retained, want <= 4", len(jobs))
	}
	// The newest job survives; the earliest ones are gone.
	if _, err := svc.Status(last.ID); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	if _, err := svc.Status("job-000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job not evicted: err = %v", err)
	}
}

// TestCacheLRU checks the result cache's bounded-size eviction.
func TestCacheLRU(t *testing.T) {
	c := newResultCache(2)
	r := func(name string) *Result { return &Result{Circuit: name} }
	c.put("a", r("a"))
	c.put("b", r("b"))
	if _, ok := c.get("a"); !ok { // refresh a; b is now oldest
		t.Fatal("a missing")
	}
	c.put("c", r("c")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}

	disabled := newResultCache(-1)
	disabled.put("a", r("a"))
	if _, ok := disabled.get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestContentKey checks the content addressing: the key must be invariant
// to structural no-ops (gate order) and sensitive to every config knob.
func TestContentKey(t *testing.T) {
	c := iscas.MustLoad("s27")
	base := GenConfig{N: 4, Seed: 1, ATPGMaxLen: 1500}.withDefaults()
	k0 := contentKey(c, "", base)

	variants := []GenConfig{
		{N: 8, Seed: 1, ATPGMaxLen: 1500},
		{N: 4, Seed: 2, ATPGMaxLen: 1500},
		{N: 4, Seed: 1, ATPGMaxLen: 900},
		{N: 4, Seed: 1, ATPGMaxLen: 1500, MaxOmissionTrials: 5},
		{N: 4, Seed: 1, ATPGMaxLen: 1500, SkipCompact: true},
	}
	for i, v := range variants {
		if contentKey(c, "", v.withDefaults()) == k0 {
			t.Errorf("variant %d: config change did not change the key", i)
		}
	}
	if contentKey(c, "0101 1010", base) == k0 {
		t.Error("supplied T0 did not change the key")
	}
	if contentKey(c, "0101  \n 1010", base) != contentKey(c, "0101 1010", base) {
		t.Error("T0 whitespace normalization failed")
	}
	// Parallelism is ignored, so it must not fragment the cache.
	p := base
	p.Parallelism = 7
	if contentKey(c, "", p) != k0 {
		t.Error("parallelism fragmented the cache key")
	}
}
