package service

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"seqbist/internal/iscas"
	"seqbist/internal/store"
)

// TestClusterTickIncrementalRefresh pins the cost model of the rewritten
// claim loop: a poll tick folds exactly the records peers appended since
// the previous tick (observable as the store.records_refreshed delta),
// and an idle tick folds nothing — poll cost tracks new records, not
// total log size (the store-level BenchmarkRefreshIncremental pins the
// same property below the service).
func TestClusterTickIncrementalRefresh(t *testing.T) {
	dir := t.TempDir()
	sst, err := store.Open(store.Options{Dir: dir, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterCfg(sst, "a")
	cfg.PollInterval = time.Hour // ticks only when the test says so
	svc := New(cfg)
	defer svc.Close()
	svc.clusterTick(time.Now()) // baseline: heartbeat, empty resync

	peer, err := store.Open(store.Options{Dir: dir, NodeID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	put := func(seq int) {
		t.Helper()
		rec := store.JobRecord{
			ID: fmt.Sprintf("job-b-%06d", seq), Seq: int64(seq),
			Key: fmt.Sprintf("key-%06d", seq), Circuit: "s27",
			Spec: json.RawMessage(`{"circuit":"s27"}`), Node: "b", Member: -1,
			State: string(StateDone), Submitted: time.Now(), Finished: time.Now(),
		}
		if err := peer.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}

	refreshed := func() int64 { return svc.Metrics().Store.RecordsRefreshed }
	const n = 40
	for seq := 1; seq <= n; seq++ {
		put(seq)
	}
	base := refreshed()
	svc.clusterTick(time.Now())
	if got := refreshed() - base; got != n {
		t.Fatalf("tick after %d peer appends folded %d records, want exactly %d", n, got, n)
	}

	// A smaller second batch: the tick must fold only the new records,
	// never re-fold the history.
	for seq := n + 1; seq <= n+5; seq++ {
		put(seq)
	}
	base = refreshed()
	svc.clusterTick(time.Now())
	if got := refreshed() - base; got != 5 {
		t.Fatalf("tick after 5 more appends folded %d records, want exactly 5", got)
	}

	// Idle tick: nothing new anywhere, nothing folded.
	base = refreshed()
	svc.clusterTick(time.Now())
	if got := refreshed() - base; got != 0 {
		t.Fatalf("idle tick folded %d records, want 0", got)
	}

	// The peer's terminal records are not this daemon's work: the mirror
	// must not accumulate them across ticks.
	if live := len(svc.remoteRecs); live != 0 {
		t.Fatalf("mirror retains %d processed terminal records, want 0", live)
	}
}

// TestClusterSweepAdoption reconstructs what a SIGKILLed sweep owner
// leaves behind — a running sweep record, its started event, one member
// as a durable queued job record, one member that never reached the
// queue, and a heartbeat that will never freshen — and checks that a
// live member adopts the sweep: takes over the record, re-submits the
// lost member, finishes the work, and finalizes the summary and event
// log exactly as the dead owner would have.
func TestClusterSweepAdoption(t *testing.T) {
	dir := t.TempDir()
	seed, err := store.Open(store.Options{Dir: dir, NodeID: "dead"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	spec := SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}}, Config: cfg}
	specData, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	created := time.Now().Add(-time.Minute) // well past 3x the 2s lease TTL
	swID := "sweep-dead-0001"
	if err := seed.PutSweep(store.SweepRecord{
		ID: swID, Seq: 1, State: string(StateRunning), Node: "dead",
		Tenant: "alpha", Spec: specData, Created: created,
		Members: []store.SweepMemberRecord{
			{Circuit: "s27", State: string(StateQueued)},
			{Circuit: "s298", State: string(StateQueued)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	ev, _ := json.Marshal(SweepEvent{Type: "sweep_started", SweepID: swID, Seq: 0, State: StateRunning})
	if err := seed.AppendEvent(store.EventRecord{SweepID: swID, Seq: 0, Data: ev}); err != nil {
		t.Fatal(err)
	}
	// Member 0 made it to the queue before the owner died; member 1
	// never did (its re-submission exercises the persisted sweep spec).
	c := iscas.MustLoad("s27")
	mspec := JobSpec{Circuit: "s27", Config: cfg}
	msData, _ := json.Marshal(mspec)
	if err := seed.PutJob(store.JobRecord{
		ID: "job-dead-000001", Seq: 1, Key: contentKey(c, "", cfg.withDefaults(1)),
		Circuit: "s27", Spec: msData, Node: "dead", SweepID: swID, Member: 0,
		Tenant: "alpha", State: string(StateQueued), Submitted: created,
	}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Heartbeat(store.NodeRecord{ID: "dead", Started: created, Time: created}); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	sst, err := store.Open(store.Options{Dir: dir, NodeID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(clusterCfg(sst, "b"))
	defer svc.Close()

	// The survivor must adopt the sweep (it appears under its /v1/sweeps
	// surface) and drive it to done.
	deadline := time.Now().Add(120 * time.Second)
	var done SweepStatus
	for {
		if st, err := svc.Sweep(swID); err == nil && st.State.Terminal() {
			done = st
			break
		}
		if time.Now().After(deadline) {
			st, err := svc.Sweep(swID)
			t.Fatalf("orphaned sweep never adopted and finished (status %+v err %v)", st, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if done.State != StateDone || done.Summary == nil || done.Summary.Done != 2 {
		t.Fatalf("adopted sweep: state %s summary %+v, want done with 2 members done", done.State, done.Summary)
	}
	if done.Summary.Markdown == "" || len(done.Summary.Rows) != 2 {
		t.Fatalf("adopted summary not aggregated: %+v", done.Summary)
	}
	// Ownership transfers to the adopter; tenant attribution does not —
	// the adopter doesn't even have "alpha" in its (empty) tenant file.
	if done.Tenant != "alpha" {
		t.Fatalf("adopted sweep tenant %q, want alpha", done.Tenant)
	}
	if n := svc.Metrics().Cluster.SweepsAdopted; n != 1 {
		t.Fatalf("sweeps_adopted = %d, want 1", n)
	}

	// The event log replays the dead owner's prefix and continues it:
	// the started event first, a terminal sweep_done with summary last.
	events, _, final, err := svc.SweepEvents(swID, 0)
	if err != nil || !final {
		t.Fatalf("adopted event log: err %v final %v", err, final)
	}
	if len(events) < 3 || events[0].Type != "sweep_started" || events[len(events)-1].Type != "sweep_done" {
		t.Fatalf("adopted event log shape: %d events, first %q last %q",
			len(events), events[0].Type, events[len(events)-1].Type)
	}
	if events[len(events)-1].Summary == nil {
		t.Fatal("terminal event carries no summary")
	}

	// The committed durable record names the adopter, so a third member
	// joining later sees a live owner and does not adopt again.
	check, err := store.Open(store.Options{Dir: dir, NodeID: "check"})
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	st, err := check.Load()
	if err != nil {
		t.Fatal(err)
	}
	var rec *store.SweepRecord
	for i := range st.Sweeps {
		if st.Sweeps[i].ID == swID {
			rec = &st.Sweeps[i]
		}
	}
	if rec == nil || rec.Node != "b" || rec.State != string(StateDone) {
		t.Fatalf("durable sweep record after adoption: %+v, want node b, done", rec)
	}
	if rec.Tenant != "alpha" {
		t.Fatalf("durable sweep record lost its tenant across adoption: %+v", rec)
	}
}

// TestAdoptionRespectsLiveOwner checks the negative space: a sweep whose
// owner is merely busy (heartbeat fresh) is never adopted, no matter how
// old the sweep is.
func TestAdoptionRespectsLiveOwner(t *testing.T) {
	dir := t.TempDir()
	seed, err := store.Open(store.Options{Dir: dir, NodeID: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: tinyCfg()}
	specData, _ := json.Marshal(spec)
	swID := "sweep-busy-0001"
	if err := seed.PutSweep(store.SweepRecord{
		ID: swID, Seq: 1, State: string(StateRunning), Node: "busy",
		Spec: specData, Created: time.Now().Add(-time.Hour),
		Members: []store.SweepMemberRecord{{Circuit: "s27", State: string(StateQueued)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Heartbeat(store.NodeRecord{ID: "busy", Started: time.Now(), Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	sst, err := store.Open(store.Options{Dir: dir, NodeID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterCfg(sst, "b")
	cfg.PollInterval = time.Hour
	svc := New(cfg)
	defer svc.Close()
	svc.clusterTick(time.Now())

	if _, err := svc.Sweep(swID); err == nil {
		t.Fatal("adopted a sweep whose owner heartbeats")
	}
	if n := svc.Metrics().Cluster.SweepsAdopted; n != 0 {
		t.Fatalf("sweeps_adopted = %d, want 0", n)
	}
}
