package service

import (
	"testing"
	"time"
)

// waitRunning polls until the job leaves the queued state.
func waitRunning(t *testing.T, svc *Service, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State != StateQueued {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still queued after %v", id, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestInFlightCoalescing submits an identical job while the first copy is
// still queued or running on a single-worker service: the duplicate must
// attach to the in-flight execution (no second pipeline run), both jobs
// must finish with the same result, and the coalesced counter must
// advance.
func TestInFlightCoalescing(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 16})
	defer svc.Close()

	spec := fastSpec("s298", 7)
	st1, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHit {
		t.Fatal("second submission was a cache hit; expected an in-flight attach")
	}

	fin1 := waitTerminal(t, svc, st1.ID, 60*time.Second)
	fin2 := waitTerminal(t, svc, st2.ID, 60*time.Second)
	if fin1.State != StateDone || fin2.State != StateDone {
		t.Fatalf("states %s / %s, want done/done", fin1.State, fin2.State)
	}
	res1, err := svc.Result(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := svc.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("coalesced jobs do not share one result")
	}
	snap := svc.Metrics()
	if snap.Jobs.Coalesced != 1 {
		t.Errorf("coalesced counter = %d, want 1", snap.Jobs.Coalesced)
	}
	if snap.Jobs.Done != 2 {
		t.Errorf("done counter = %d, want 2", snap.Jobs.Done)
	}
	// The pipeline ran once: simulation-work accounting is per execution.
	if snap.Fsim.Proc2Sims != int64(res1.Sims) {
		t.Errorf("proc2_sims = %d, want one execution's %d", snap.Fsim.Proc2Sims, res1.Sims)
	}
}

// TestCoalescedCancelKeepsOthers cancels one of two coalesced jobs: the
// canceled job terminates immediately, the survivor still completes —
// canceling one client's submission must never disturb an identical
// concurrent submission from another client.
func TestCoalescedCancelKeepsOthers(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 16})
	defer svc.Close()

	spec := fastSpec("s298", 11)
	st1, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	canceled, err := svc.Cancel(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("cancel left job in state %s", canceled.State)
	}
	fin2 := waitTerminal(t, svc, st2.ID, 60*time.Second)
	if fin2.State != StateDone {
		t.Fatalf("survivor finished %s, want done", fin2.State)
	}
	if _, err := svc.Result(st2.ID); err != nil {
		t.Fatalf("survivor result: %v", err)
	}
}

// TestCoalescedCancelAllInterrupts cancels every coalesced observer of a
// queued execution: the run must be abandoned without executing, and a
// fresh identical submission afterwards must start a new execution and
// complete.
func TestCoalescedCancelAllInterrupts(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 16})
	defer svc.Close()

	// Occupy the single worker so the target execution stays queued.
	blocker, err := svc.Submit(fastSpec("s344", 3))
	if err != nil {
		t.Fatal(err)
	}
	spec := fastSpec("s298", 13)
	st1, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(st1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(st2.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, svc, st1.ID, time.Second); st.State != StateCanceled {
		t.Fatalf("first job %s, want canceled", st.State)
	}
	if st := waitTerminal(t, svc, st2.ID, time.Second); st.State != StateCanceled {
		t.Fatalf("second job %s, want canceled", st.State)
	}
	waitTerminal(t, svc, blocker.ID, 60*time.Second)

	// The abandoned execution must not have poisoned the coalescing slot.
	st3, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, svc, st3.ID, 60*time.Second); fin.State != StateDone {
		t.Fatalf("resubmission finished %s, want done", fin.State)
	}
}

// TestCoalescingRunningAttach attaches to an execution that has already
// started: the follower must report running immediately and share the
// leader's result.
func TestCoalescingRunningAttach(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16})
	defer svc.Close()

	// A spec slow enough to still be running when the duplicate arrives.
	spec := JobSpec{Circuit: "s1423", Config: GenConfig{
		N: 2, Seed: 5, ATPGMaxLen: 400, MaxOmissionTrials: 60,
	}}
	st1, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, st1.ID, 30*time.Second)
	st2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHit {
		t.Skip("leader finished before the duplicate arrived; nothing to coalesce")
	}
	if st2.State != StateRunning {
		t.Errorf("follower attached to a running execution reports %s, want running", st2.State)
	}
	fin1 := waitTerminal(t, svc, st1.ID, 120*time.Second)
	fin2 := waitTerminal(t, svc, st2.ID, 120*time.Second)
	if fin1.State != StateDone || fin2.State != StateDone {
		t.Fatalf("states %s / %s, want done/done", fin1.State, fin2.State)
	}
	if svc.Metrics().Jobs.Coalesced != 1 {
		t.Errorf("coalesced counter = %d, want 1", svc.Metrics().Jobs.Coalesced)
	}
}

// TestStaleExecutionDoesNotEvictInflightSlot is the regression test for
// a coalescing bookkeeping hazard: an execution abandoned by cancellation
// is still processed (and skipped) by a worker later; that cleanup must
// not evict the inflight slot of a NEWER identical execution registered
// in the meantime, or subsequent duplicates would bypass coalescing and
// run the pipeline twice concurrently.
func TestStaleExecutionDoesNotEvictInflightSlot(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 16})
	defer svc.Close()

	// Occupy the single worker so executions queue up behind it.
	blocker, err := svc.Submit(fastSpec("s344", 17))
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Circuit: "s1423", Config: GenConfig{
		N: 2, Seed: 19, ATPGMaxLen: 400, MaxOmissionTrials: 60,
	}}
	// First execution for the key, abandoned while queued.
	st1, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(st1.ID); err != nil {
		t.Fatal(err)
	}
	// Second execution for the same key, registered while the abandoned
	// one still sits in the queue ahead of it.
	st2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, blocker.ID, 60*time.Second)
	// The worker has now skipped the abandoned execution and started the
	// second one. A duplicate submitted while it runs must coalesce.
	waitRunning(t, svc, st2.ID, 30*time.Second)
	st3, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Skip("second execution finished before the duplicate arrived; nothing to observe")
	}
	if got := svc.Metrics().Jobs.Coalesced; got != 1 {
		t.Errorf("coalesced counter = %d, want 1 (stale cleanup evicted the live inflight slot)", got)
	}
	if fin := waitTerminal(t, svc, st3.ID, 120*time.Second); fin.State != StateDone {
		t.Fatalf("duplicate finished %s, want done", fin.State)
	}
	waitTerminal(t, svc, st2.ID, 120*time.Second)
}
