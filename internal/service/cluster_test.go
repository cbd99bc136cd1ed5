package service

import (
	"encoding/json"
	"testing"
	"time"

	"seqbist/internal/iscas"
	"seqbist/internal/store"
)

// clusterCfg builds one member's config on a shared store.
func clusterCfg(st store.Store, node string) Config {
	return Config{
		Workers:      1,
		Store:        st,
		NodeID:       node,
		LeaseTTL:     2 * time.Second,
		PollInterval: 10 * time.Millisecond,
	}
}

// TestClusterSharedQueue runs two Services against one shared store (a
// Memory, so arbitration is call-order) and checks the defining
// cluster property: one daemon's sweep is drained by both, the
// submitter observes remote completions, and the summary is
// bit-identical to a single-daemon run of the same sweep.
func TestClusterSharedQueue(t *testing.T) {
	shared := store.NewMemory()
	a := New(clusterCfg(shared, "a"))
	b := New(clusterCfg(shared, "b"))
	defer a.Close()
	defer b.Close()

	spec := SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}, {Circuit: "s344"}, {Circuit: "s382"}},
		Config:   tinyCfg(),
	}
	sw, err := a.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitSweepTerminal(t, a, sw.ID)
	if done.State != StateDone || done.Summary == nil || done.Summary.Done != len(spec.Circuits) {
		t.Fatalf("cluster sweep: state %s summary %+v", done.State, done.Summary)
	}

	am, bm := a.Metrics(), b.Metrics()
	if am.Cluster == nil || bm.Cluster == nil {
		t.Fatal("cluster metrics section missing")
	}
	if am.Cluster.ClaimsWon+bm.Cluster.ClaimsWon < int64(len(spec.Circuits)) {
		t.Fatalf("claims won: a=%d b=%d, want >= %d total",
			am.Cluster.ClaimsWon, bm.Cluster.ClaimsWon, len(spec.Circuits))
	}
	if bm.Cluster.ClaimsWon == 0 {
		t.Fatalf("peer b never won a claim (a=%d b=%d): work not shared",
			am.Cluster.ClaimsWon, bm.Cluster.ClaimsWon)
	}
	if am.Cluster.RemoteDone == 0 {
		t.Fatal("submitter never observed a remote completion")
	}
	if am.Cluster.Peers == 0 || bm.Cluster.Peers == 0 {
		t.Fatalf("heartbeats not observed: a sees %d peers, b sees %d", am.Cluster.Peers, bm.Cluster.Peers)
	}

	// The same sweep on a plain single daemon must produce the
	// identical summary table (content-addressed determinism).
	single := New(Config{Workers: 2})
	defer single.Close()
	ref, err := single.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitSweepTerminal(t, single, ref.ID)
	if refDone.Summary == nil || refDone.Summary.Markdown != done.Summary.Markdown {
		t.Fatalf("cluster summary differs from single-daemon run:\ncluster %q\nsingle  %q",
			done.Summary.Markdown, refDone.Summary.Markdown)
	}
}

// TestClusterStealsExpiredLease reconstructs what a SIGKILLed member
// leaves behind — a running job record under a lease that will never be
// renewed — and checks that a live member steals and finishes it, and
// that an *unexpired* lease is respected.
func TestClusterStealsExpiredLease(t *testing.T) {
	dir := t.TempDir()
	seed, err := store.Open(store.Options{Dir: dir, NodeID: "dead"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	c := iscas.MustLoad("s27")
	spec := JobSpec{Circuit: "s27", Config: cfg}
	specData, _ := json.Marshal(spec)
	stolen := store.JobRecord{
		ID: "job-dead-000001", Seq: 1, Key: contentKey(c, "", cfg.withDefaults()),
		Circuit: "s27", Spec: specData, Node: "dead", Member: -1,
		State: string(StateRunning), Submitted: time.Now(), Started: time.Now(),
	}
	if err := seed.PutJob(stolen); err != nil {
		t.Fatal(err)
	}
	// The dead member held the lease; TTL 50ms expires almost at once.
	if won, err := seed.ClaimJob(stolen.ID, "dead", 50*time.Millisecond); err != nil || !won {
		t.Fatalf("seeding claim: won=%v err=%v", won, err)
	}
	// A second job is fenced by a lease that stays live throughout.
	fenced := stolen
	fenced.ID, fenced.Seq = "job-dead-000002", 2
	c344 := iscas.MustLoad("s344")
	spec344 := JobSpec{Circuit: "s344", Config: cfg}
	fenced.Spec, _ = json.Marshal(spec344)
	fenced.Key = contentKey(c344, "", cfg.withDefaults())
	fenced.Circuit = "s344"
	if err := seed.PutJob(fenced); err != nil {
		t.Fatal(err)
	}
	if won, err := seed.ClaimJob(fenced.ID, "dead", time.Hour); err != nil || !won {
		t.Fatalf("seeding live claim: won=%v err=%v", won, err)
	}
	seed.Close()

	sst, err := store.Open(store.Options{Dir: dir, NodeID: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(clusterCfg(sst, "survivor"))
	defer svc.Close()

	// The survivor must steal the expired lease and run the job to done.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st, err := svc.Status(stolen.ID); err == nil && st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stolen job never completed on the survivor")
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := svc.Metrics()
	if snap.Cluster.JobsStolen == 0 || snap.Cluster.LeasesExpired == 0 {
		t.Fatalf("steal not recorded: %+v", snap.Cluster)
	}

	// The fenced job's lease never expires within the test: hands off.
	if st, err := svc.Status(fenced.ID); err == nil && st.State != StateQueued {
		t.Fatalf("survivor touched a job under a live lease: %+v", st)
	}
	claims, err := sst.Claims()
	if err != nil {
		t.Fatal(err)
	}
	if claims[fenced.ID].Node != "dead" {
		t.Fatalf("live lease not respected: holder %q", claims[fenced.ID].Node)
	}
}

// TestClusterRemoteCancelDetachesOnlyCanceledJob pins the cluster half
// of the cancellation contract: when a submitter cancels a job that
// this daemon is executing, only that job detaches — a local submission
// coalesced onto the same in-flight execution keeps running and
// completes. (The tick is driven by hand so the scenario is exact.)
func TestClusterRemoteCancelDetachesOnlyCanceledJob(t *testing.T) {
	shared := store.NewMemory()
	cfg := clusterCfg(shared, "b")
	cfg.PollInterval = time.Hour // ticks only when the test says so
	cfg.LeaseTTL = time.Minute
	b := New(cfg)
	defer b.Close()

	// A peer-submitted record for a multi-second job.
	gen := GenConfig{N: 2, Seed: 1, ATPGMaxLen: 180, MaxOmissionTrials: 20}
	c := iscas.MustLoad("s1423")
	spec := JobSpec{Circuit: "s1423", Config: gen}
	specData, _ := json.Marshal(spec)
	remote := store.JobRecord{
		ID: "job-a-000001", Seq: 1, Key: contentKey(c, "", gen.withDefaults()),
		Circuit: "s1423", Spec: specData, Node: "a", Member: -1,
		State: string(StateQueued), Submitted: time.Now(),
	}
	if err := shared.PutJob(remote); err != nil {
		t.Fatal(err)
	}
	b.clusterTick(time.Now()) // b claims and starts executing

	// A local submission with the same content key coalesces onto the
	// claimed run.
	local, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	lj := b.jobs[local.ID]
	attached := lj != nil && lj.exec != nil && lj.exec.leaseID == remote.ID
	b.mu.Unlock()
	if !attached {
		t.Skip("claimed run finished before the local submission could coalesce")
	}

	// The submitter cancels its job: the canceled record appears in the
	// shared store and b's next tick observes it.
	cancelRec := remote
	cancelRec.Spec = nil
	cancelRec.State = string(StateCanceled)
	cancelRec.Error = "context canceled"
	cancelRec.Finished = time.Now()
	if err := shared.PutJob(cancelRec); err != nil {
		t.Fatal(err)
	}
	b.clusterTick(time.Now())

	if st, err := b.Status(remote.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("canceled job mirror: state %v err %v, want canceled", st.State, err)
	}
	final := waitTerminal(t, b, local.ID, 120*time.Second)
	if final.State != StateDone {
		t.Fatalf("coalesced observer ended %s (err %q), want done — remote cancel disturbed it",
			final.State, final.Error)
	}
}

// TestClusterRecoveryRebuildsOwnRecordsOnly checks that a restarted
// cluster member rehydrates its own submissions (orphans included, left
// as durable queued records for the claim loops) without adopting
// peers' records.
func TestClusterRecoveryRebuildsOwnRecordsOnly(t *testing.T) {
	dir := t.TempDir()
	seed, err := store.Open(store.Options{Dir: dir, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	c := iscas.MustLoad("s27")
	spec := JobSpec{Circuit: "s27", Config: cfg}
	specData, _ := json.Marshal(spec)
	mine := store.JobRecord{
		ID: "job-a-000001", Seq: 1, Key: contentKey(c, "", cfg.withDefaults()),
		Circuit: "s27", Spec: specData, Node: "a", Member: -1,
		State: string(StateQueued), Submitted: time.Now(),
	}
	theirs := mine
	theirs.ID, theirs.Node = "job-b-000001", "b"
	if err := seed.PutJob(mine); err != nil {
		t.Fatal(err)
	}
	if err := seed.PutJob(theirs); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	sst, err := store.Open(store.Options{Dir: dir, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(clusterCfg(sst, "a"))
	defer svc.Close()
	if _, err := svc.Status("job-a-000001"); err != nil {
		t.Fatalf("own record not recovered: %v", err)
	}
	// The peer's record is not rebuilt at recovery — though the claim
	// loop may later mirror it to execute it, which is fine; what must
	// never happen is counting it as our own recovered job.
	if n := svc.Metrics().Store.JobsRecovered; n != 1 {
		t.Fatalf("recovered %d jobs, want exactly 1 (own record only)", n)
	}
	// Both queued records are claimable work; the single survivor
	// eventually completes its own (and may complete the peer's too).
	waitTerminal(t, svc, "job-a-000001", 60*time.Second)
}
