package service

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"seqbist/internal/iscas"
	"seqbist/internal/store"
	"seqbist/internal/strategy"
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
		ID: "job-dead-000001", Seq: 1, Key: contentKey(c, "", cfg.withDefaults()),
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

// seedMidSweep lays out in dir what node n1 leaves behind when it dies
// mid-sweep: a three-member sweep whose member 0 is done (result body
// stored, its done event logged with the result stripped), member 1 is a
// queued job record, and member 2 never reached the queue — with n1's
// last heartbeat long stale. Member 1's record holds Seq 1 so a
// rebuilt member 2 sorts after it in either node's claim order, which
// keeps the event order of the two rebuilds comparable.
func seedMidSweep(t *testing.T, dir string, cfg GenConfig) {
	t.Helper()
	seed, err := store.Open(store.Options{Dir: dir, NodeID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	const swID = "sweep-n1-0001"
	created := time.Now().Add(-time.Minute) // well past 3x the 2s lease TTL
	spec := SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}, {Circuit: "s344"}}, Config: cfg}
	if err := seed.PutSweep(store.SweepRecord{
		ID: swID, Seq: 1, State: string(StateRunning), Node: "n1", Tenant: AnonymousTenant,
		Spec: mustJSON(t, spec), Created: created,
		Members: []store.SweepMemberRecord{
			{JobID: "job-n1-000002", Circuit: "s27", State: string(StateDone)},
			{JobID: "job-n1-000001", Circuit: "s298", State: string(StateQueued)},
			{Circuit: "s344", State: string(StateQueued)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	res0, err := Synthesize(context.Background(), JobSpec{Circuit: "s27", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	key0 := contentKey(iscas.MustLoad("s27"), "", cfg.withDefaults())
	if err := seed.PutResult(key0, mustJSON(t, res0)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []store.JobRecord{
		{ID: "job-n1-000001", Seq: 1, Key: contentKey(iscas.MustLoad("s298"), "", cfg.withDefaults()),
			Circuit: "s298", Spec: mustJSON(t, JobSpec{Circuit: "s298", Config: cfg}), Node: "n1",
			Tenant: AnonymousTenant, SweepID: swID, Member: 1, State: string(StateQueued), Submitted: created},
		{ID: "job-n1-000002", Seq: 2, Key: key0,
			Circuit: "s27", Spec: mustJSON(t, JobSpec{Circuit: "s27", Config: cfg}), Node: "n1",
			Tenant: AnonymousTenant, SweepID: swID, Member: 0, State: string(StateDone),
			Submitted: created, Started: created, Finished: created},
	} {
		if err := seed.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	m1 := SweepMemberStatus{Index: 1, Circuit: "s298", JobID: "job-n1-000001", State: StateQueued}
	m0 := SweepMemberStatus{Index: 0, Circuit: "s27", JobID: "job-n1-000002", State: StateDone}
	for seq, ev := range []SweepEvent{
		{Type: "sweep_started"},
		{Type: "member_update", Member: &m1},
		{Type: "member_update", Member: &m0},
	} {
		ev.SweepID, ev.Seq, ev.State = swID, seq, StateRunning
		if err := seed.AppendEvent(store.EventRecord{SweepID: swID, Seq: seq, Data: mustJSON(t, ev)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Heartbeat(store.NodeRecord{ID: "n1", Started: created, Time: created}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryMatchesAdoption is the differential check of the one
// rebuild path: the same mid-sweep store state is rebuilt once by its
// owner restarting (recovery) and once by a peer after the owner's
// heartbeat went stale (adoption), and both must finish the sweep with
// the same member statuses and results, the same event log, and the
// same summary.
func TestRecoveryMatchesAdoption(t *testing.T) {
	cfg := tinyCfg()
	const swID = "sweep-n1-0001"
	rebuild := func(node string) (SweepStatus, []SweepEvent) {
		dir := t.TempDir()
		seedMidSweep(t, dir, cfg)
		sst, err := store.Open(store.Options{Dir: dir, NodeID: node})
		if err != nil {
			t.Fatal(err)
		}
		c := clusterCfg(sst, node)
		if node != "n1" {
			// Adopt before the claim loop first ticks, so no claim of the
			// queued member races the hooks adoption attaches; from then
			// on the loop ticks on the nudges of freed workers.
			c.PollInterval = time.Hour
		}
		svc := New(c)
		defer svc.Close()
		if node != "n1" {
			delta, cursor, err := svc.store.Changes(svc.changeCursor)
			if err != nil {
				t.Fatal(err)
			}
			svc.changeCursor = cursor
			svc.foldDelta(delta)
			svc.adoptStaleSweeps(time.Now())
			if n := svc.Metrics().Cluster.SweepsAdopted; n != 1 {
				t.Fatalf("%s: sweeps_adopted = %d, want 1", node, n)
			}
			svc.nudgeCluster()
		}
		fin := waitSweepTerminal(t, svc, swID)
		events, _, _, err := svc.SweepEvents(swID, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fin, events
	}
	rec, recEvents := rebuild("n1")
	adp, adpEvents := rebuild("n2")

	if rec.State != StateDone || adp.State != StateDone {
		t.Fatalf("rebuilt sweeps ended %s (recovery) and %s (adoption), want done", rec.State, adp.State)
	}
	sameMember := func(what string, a, b *SweepMemberStatus) {
		t.Helper()
		if a.Index != b.Index || a.Circuit != b.Circuit || a.State != b.State ||
			a.CacheHit != b.CacheHit || a.Error != b.Error {
			t.Errorf("%s: recovery %+v, adoption %+v", what, *a, *b)
		}
		if a.Index != 2 && a.JobID != b.JobID { // member 2 is re-submitted under each node's IDs
			t.Errorf("%s: job %s (recovery) vs %s (adoption)", what, a.JobID, b.JobID)
		}
		if !resultsEquivalent(a.Result, b.Result) {
			t.Errorf("%s: results differ", what)
		}
	}
	for i := range rec.Members {
		if rec.Members[i].State != StateDone || rec.Members[i].Result == nil {
			t.Errorf("member %d: recovery left it %s", i, rec.Members[i].State)
		}
		sameMember(fmt.Sprintf("member %d", i), &rec.Members[i], &adp.Members[i])
	}
	if !reflect.DeepEqual(rec.Summary, adp.Summary) {
		t.Errorf("summaries differ:\nrecovery %+v\nadoption %+v", rec.Summary, adp.Summary)
	}
	if len(recEvents) != len(adpEvents) {
		t.Fatalf("event logs: %d events (recovery), %d (adoption)", len(recEvents), len(adpEvents))
	}
	for i := range recEvents {
		a, b := recEvents[i], adpEvents[i]
		if a.Type != b.Type || a.Seq != b.Seq || a.State != b.State || (a.Member == nil) != (b.Member == nil) {
			t.Fatalf("event %d: recovery %s/%d/%s, adoption %s/%d/%s", i, a.Type, a.Seq, a.State, b.Type, b.Seq, b.State)
		}
		if a.Member != nil {
			sameMember(fmt.Sprintf("event %d", i), a.Member, b.Member)
		}
	}
	if last := recEvents[len(recEvents)-1]; last.Type != "sweep_done" || !reflect.DeepEqual(last.Summary, adpEvents[len(adpEvents)-1].Summary) {
		t.Errorf("final events differ: %+v", last)
	}
}

// TestAdoptRacingSweep adopts a sweep whose owner died mid-race with two
// of its member's four legs queued: the adopter must re-attach the race
// to those two leg records, mint only the two missing legs, and keep the
// result a never-crashed race keeps.
func TestAdoptRacingSweep(t *testing.T) {
	dir := t.TempDir()
	seed, err := store.Open(store.Options{Dir: dir, NodeID: "dead"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.Seed = 3
	cfg.Strategy = strategy.Race
	const swID = "sweep-dead-0001"
	created := time.Now().Add(-time.Minute)
	if err := seed.PutSweep(store.SweepRecord{
		ID: swID, Seq: 1, State: string(StateRunning), Node: "dead",
		Spec:    mustJSON(t, SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: cfg}),
		Created: created,
		Members: []store.SweepMemberRecord{{Circuit: "s27", State: string(StateQueued)}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range raceLegRecords(cfg, swID, "dead", 1, strategy.Concrete()[:2]) {
		if err := seed.PutJob(rec); err != nil {
			t.Fatal(err)
		}
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
	deadline := time.Now().Add(120 * time.Second)
	var fin SweepStatus
	for {
		if st, err := svc.Sweep(swID); err == nil && st.State.Terminal() {
			fin = st
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("racing sweep never adopted and finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if fin.State != StateDone || fin.Summary == nil || fin.Summary.Done != 1 {
		t.Fatalf("adopted race sweep: state %s summary %+v", fin.State, fin.Summary)
	}
	if !resultsEquivalent(fin.Members[0].Result, freshRaceResult(t, cfg)) {
		t.Error("adopted race kept a different result than a never-crashed race")
	}
	if n := svc.Metrics().Cluster.SweepsAdopted; n != 1 {
		t.Fatalf("sweeps_adopted = %d, want 1", n)
	}

	st, err := sst.Load()
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]int)
	for _, rec := range st.Jobs {
		if rec.SweepID == swID && rec.Member == -1 {
			keys[rec.Key]++
		}
	}
	if len(keys) != len(strategy.Concrete()) {
		t.Fatalf("%d distinct leg keys in the store, want %d", len(keys), len(strategy.Concrete()))
	}
	for key, n := range keys {
		if n != 1 {
			t.Errorf("leg key %.12s has %d records, want 1 (stored legs re-attached, not re-minted)", key, n)
		}
	}
}
