package service

import (
	"errors"
	"slices"
	"testing"
	"time"

	"seqbist/internal/atpg"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/store"
)

// longSpec is an s1423 job without a T0: several seconds of ATPG that a
// cancel interrupts at the next round.
func longSpec(seed uint64) JobSpec {
	return JobSpec{Circuit: "s1423", Config: GenConfig{N: 4, Seed: seed}}
}

// waitClaimsHeld polls until the claim loop holds n leases.
func waitClaimsHeld(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for svc.Metrics().Cluster.ClaimsHeld != n {
		if time.Now().After(deadline) {
			t.Fatalf("claim loop never held %d leases", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoStoreIsClusterOfOne pins the no-store default: a service without
// a store runs the one claim-loop dispatch path over a fresh
// store.Memory as the store's exclusive writer. Job IDs keep their
// un-namespaced form, the store and cluster metric sections are
// present, the local claim loop ran the job, and the stored result body
// is reference-counted for online deletion.
func TestNoStoreIsClusterOfOne(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	st, err := svc.Submit(fastSpec("s27", 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-000001" {
		t.Fatalf("job ID %q, want job-000001", st.ID)
	}
	if fin := waitTerminal(t, svc, st.ID, 60*time.Second); fin.State != StateDone {
		t.Fatalf("job state %s (%s)", fin.State, fin.Error)
	}
	snap := svc.Metrics()
	if snap.Store == nil || snap.Cluster == nil {
		t.Fatal("store and cluster metric sections must always be present")
	}
	if snap.Cluster.NodeID != "" || snap.Cluster.ClaimsWon != 1 || snap.Cluster.ClaimsHeld != 0 {
		t.Fatalf("cluster section %+v, want node_id \"\", 1 claim won, none held", snap.Cluster)
	}
	svc.mu.Lock()
	refs := svc.resultRefs[svc.jobs[st.ID].key]
	svc.mu.Unlock()
	if refs != 2 {
		t.Fatalf("result body has %d referents, want 2 (the job and its cache entry)", refs)
	}
}

// TestSingleNodeFairShare checks that tenant weights apply to a single
// daemon: with one worker busy, a backlog of a weight-1 tenant that
// arrived first and a weight-3 tenant starts in deficit-round-robin
// order, not first-in-first-out.
func TestSingleNodeFairShare(t *testing.T) {
	svc := New(Config{Workers: 1, Tenants: []TenantConfig{
		{Name: "free", Key: "fk", Weight: 1},
		{Name: "paid", Key: "pk", Weight: 3},
	}})
	defer svc.Close()

	// Two long jobs hold the worker and the one claim beyond it (the
	// claim budget is Workers+1), so the whole backlog is queued before
	// any of it is claimed.
	var blockers []string
	for seed := uint64(1); seed <= 2; seed++ {
		st, err := svc.Submit(longSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, st.ID)
	}
	waitClaimsHeld(t, svc, 2)

	tenantOf := make(map[string]string)
	for i, tenant := range []string{"free", "free", "free", "free", "paid", "paid", "paid", "paid", "paid", "paid"} {
		st, err := svc.SubmitAs(tenant, fastSpec("s27", uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		tenantOf[st.ID] = tenant
	}
	for _, id := range blockers {
		if _, err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}

	var done []Status
	for id := range tenantOf {
		st := waitTerminal(t, svc, id, 60*time.Second)
		if st.State != StateDone || st.StartedAt == nil {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
		done = append(done, st)
	}
	slices.SortFunc(done, func(a, b Status) int { return a.StartedAt.Compare(*b.StartedAt) })
	got := make([]string, len(done))
	for i, st := range done {
		got[i] = tenantOf[st.ID]
	}
	want := []string{"free", "paid", "paid", "paid", "free", "paid", "paid", "paid", "free", "free"}
	if !slices.Equal(got, want) {
		t.Fatalf("start order %v, want %v", got, want)
	}
}

// TestClusterQueueFull checks backpressure on a cluster member: once its
// own unclaimed queued jobs reach QueueDepth, submissions are refused
// with ErrQueueFull and readiness says why.
func TestClusterQueueFull(t *testing.T) {
	const depth = 2
	svc := New(Config{Workers: 1, QueueDepth: depth, Store: store.NewMemory(), NodeID: "n1"})
	defer svc.Close()
	// A long job on the worker and one job claimed behind it use up the
	// claim budget (Workers+1), so everything after them stays unclaimed.
	var ids []string
	for _, spec := range []JobSpec{longSpec(1), fastSpec("s27", 2)} {
		st, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitClaimsHeld(t, svc, 2)
	var full bool
	for seed := uint64(3); seed < 13; seed++ {
		st, err := svc.Submit(fastSpec("s27", seed))
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if !full || len(ids) != 2+depth {
		t.Fatalf("accepted %d unclaimed jobs (queue full: %v), want %d", len(ids)-2, full, depth)
	}
	if ready, reason := svc.Readiness(); ready || reason != "queue full" {
		t.Fatalf("Readiness() = %v %q, want the queue-full refusal", ready, reason)
	}
	for _, id := range ids {
		if _, err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWakeOnWorkerFree checks that a freed worker wakes the claim loop:
// a backlog deeper than the claim budget drains without waiting out the
// poll interval between jobs.
func TestWakeOnWorkerFree(t *testing.T) {
	svc := New(Config{Workers: 1, Store: store.NewMemory(), NodeID: "n1",
		PollInterval: 10 * time.Second})
	defer svc.Close()
	start := time.Now()
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := svc.Submit(fastSpec("s27", seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, svc, id, 5*time.Second); st.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("3 jobs took %v with a 10s poll interval", took)
	}
}

// TestCancellationDuringTCompact checks that cancellation reaches T0
// compaction: an s1423 no-T0 job canceled once its ATPG is done and
// compaction is simulating frees the worker, and a follow-up job
// finishes within a second.
func TestCancellationDuringTCompact(t *testing.T) {
	spec := longSpec(1)
	if raceEnabled {
		// The race detector multiplies the cost of the two ATPG runs; a
		// shorter T0 keeps the check affordable there.
		spec.Config.ATPGMaxLen = 300
	}
	cfg := spec.Config.withDefaults()
	c := iscas.MustLoad(spec.Circuit)
	// ATPG is deterministic, so its pattern count marks where the job's
	// own ATPG ends; nothing else simulates in this process meanwhile.
	before := fsim.PatternsApplied()
	if _, err := atpg.Generate(c, faults.CollapsedUniverse(c), atpg.Config{Seed: cfg.Seed, MaxLen: cfg.ATPGMaxLen}); err != nil {
		t.Fatal(err)
	}
	atpgPatterns := fsim.PatternsApplied() - before

	svc := New(Config{Workers: 1, QueueDepth: 8})
	defer svc.Close()
	before = fsim.PatternsApplied()
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for fsim.PatternsApplied()-before <= atpgPatterns {
		if st, err := svc.Status(job.ID); err != nil || st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("T0 compaction never started (state %s, err %v)", st.State, err)
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
	bound := time.Second
	if raceEnabled {
		bound = 5 * time.Second // one compaction target alone takes ~1s there
	}
	if took := time.Since(canceled); took > bound {
		t.Errorf("the canceled T0 compaction held the worker for %v, want under %v", took, bound)
	}
}
