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

// diskStore opens a Disk store on a fresh (or reused) test directory.
func diskStore(t *testing.T, dir string) *store.Disk {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// resultsEquivalent compares two Results ignoring ElapsedMS (the only
// nondeterministic field).
func resultsEquivalent(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	ca, cb := *a, *b
	ca.ElapsedMS, cb.ElapsedMS = 0, 0
	return reflect.DeepEqual(ca, cb)
}

// TestPersistRestartRoundTrip drives jobs and a sweep through a
// persistent service, shuts it down gracefully, restarts on the same
// directory, and checks that every status, result, event line, and
// summary reappears — and that resubmissions hit the rehydrated cache.
func TestPersistRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, Store: diskStore(t, dir)}
	svc := New(cfg)

	st1, err := svc.Submit(fastSpec("s27", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, st1.ID, 60*time.Second)
	res1, err := svc.Result(st1.ID)
	if err != nil {
		t.Fatal(err)
	}

	sweepSpec := SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}},
		Config:   tinyCfg(),
	}
	sw, err := svc.SubmitSweep(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitSweepTerminal(t, svc, sw.ID)
	if done.State != StateDone || done.Summary == nil {
		t.Fatalf("sweep: state %s, summary %v", done.State, done.Summary)
	}
	events1, _, _, err := svc.SweepEvents(sw.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs1 := svc.Jobs()
	svc.Close()

	svc2 := New(Config{Workers: 2, Store: diskStore(t, dir)})
	defer svc2.Close()

	jobs2 := svc2.Jobs()
	if len(jobs2) != len(jobs1) {
		t.Fatalf("restart lost jobs: %d -> %d", len(jobs1), len(jobs2))
	}
	for i := range jobs1 {
		a, b := jobs1[i], jobs2[i]
		if a.ID != b.ID || a.State != b.State || a.Circuit != b.Circuit || a.CacheHit != b.CacheHit {
			t.Fatalf("job %d changed across restart:\nbefore %+v\nafter  %+v", i, a, b)
		}
	}
	res2, err := svc2.Result(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEquivalent(res1, res2) {
		t.Fatal("job result changed across restart")
	}

	sw2, err := svc2.Sweep(sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sw2.State != StateDone || sw2.Summary == nil {
		t.Fatalf("sweep not recovered terminal: %+v", sw2.State)
	}
	if sw2.Summary.Markdown != done.Summary.Markdown {
		t.Fatalf("summary markdown not rehydrated identically:\nbefore %q\nafter  %q",
			done.Summary.Markdown, sw2.Summary.Markdown)
	}
	for i := range done.Members {
		if !resultsEquivalent(done.Members[i].Result, sw2.Members[i].Result) {
			t.Fatalf("member %d result changed across restart", i)
		}
	}
	events2, _, done2, err := svc2.SweepEvents(sw.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !done2 {
		t.Fatal("recovered sweep stream not terminal")
	}
	if len(events2) != len(events1) {
		t.Fatalf("event log changed: %d -> %d events", len(events1), len(events2))
	}
	for i := range events1 {
		a, _ := json.Marshal(events1[i])
		b, _ := json.Marshal(events2[i])
		if string(a) != string(b) {
			t.Fatalf("event %d changed across restart:\nbefore %s\nafter  %s", i, a, b)
		}
	}

	// The rehydrated cache must serve identical submissions instantly.
	hit, err := svc2.Submit(fastSpec("s27", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("expected a cache hit from the rehydrated cache")
	}

	snap := svc2.Metrics()
	if snap.Store == nil {
		t.Fatal("metrics: store section missing with persistence on")
	}
	if snap.Store.JobsRecovered == 0 || snap.Store.SweepsRecovered == 0 {
		t.Fatalf("metrics: recovery counters empty: %+v", snap.Store)
	}
	if snap.Store.WriteErrors != 0 {
		t.Fatalf("metrics: %d store write errors", snap.Store.WriteErrors)
	}
}

// TestRecoveryMidSweepCrash rebuilds a service from a store laid out the
// way a SIGKILL mid-sweep leaves it — one member running, one queued,
// one never enqueued, plus a done job whose result body is gone — and
// checks that the restarted service finishes the sweep with results
// bit-identical to direct pipeline runs.
func TestRecoveryMidSweepCrash(t *testing.T) {
	dir := t.TempDir()
	st := diskStore(t, dir)
	cfg := tinyCfg()
	sweepSpec := SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}, {Circuit: "s344"}},
		Config:   cfg,
	}
	specJSON, _ := json.Marshal(sweepSpec)
	now := time.Now()

	mkJob := func(seq int64, circuit string, member int, state string) store.JobRecord {
		spec := JobSpec{Circuit: circuit, Config: cfg}
		specData, _ := json.Marshal(spec)
		c := iscas.MustLoad(circuit)
		return store.JobRecord{
			ID:        jobID(seq),
			Seq:       seq,
			Key:       contentKey(c, "", cfg.withDefaults()),
			Circuit:   circuit,
			Spec:      specData,
			SweepID:   "sweep-0001",
			Member:    member,
			State:     state,
			Submitted: now,
		}
	}
	// Member 0 was running, member 1 queued; member 2 never reached the
	// queue (no job record). A standalone done job (different sweep id
	// field left empty) lost its result body.
	lost := store.JobRecord{
		ID: jobID(7), Seq: 7, Key: "missing-result-key", Circuit: "s27",
		Spec: mustJSON(t, JobSpec{Circuit: "s27", Config: cfg}), Member: -1,
		State: string(StateDone), Submitted: now,
	}
	if err := st.PutSweep(store.SweepRecord{
		ID: "sweep-0001", Seq: 1, State: string(StateRunning), Spec: specJSON,
		Members: []store.SweepMemberRecord{
			{JobID: jobID(1), Circuit: "s27", State: string(StateRunning)},
			{JobID: jobID(2), Circuit: "s298", State: string(StateQueued)},
			{Circuit: "s344", State: string(StateQueued)},
		},
		Created: now,
	}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []store.JobRecord{
		mkJob(1, "s27", 0, string(StateRunning)),
		mkJob(2, "s298", 1, string(StateQueued)),
		lost,
	} {
		if err := st.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 2, Store: diskStore(t, dir)})
	defer svc.Close()

	snap := svc.Metrics()
	if snap.Store == nil || snap.Store.OrphansRequeued < 3 {
		t.Fatalf("expected >=3 requeued orphans, got %+v", snap.Store)
	}

	done := waitSweepTerminal(t, svc, "sweep-0001")
	if done.State != StateDone {
		t.Fatalf("recovered sweep state %s", done.State)
	}
	if done.Summary == nil || done.Summary.Done != 3 {
		t.Fatalf("recovered sweep summary: %+v", done.Summary)
	}
	for i, ref := range sweepSpec.Circuits {
		want, err := Synthesize(context.Background(),
			JobSpec{Circuit: ref.Circuit, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEquivalent(want, done.Members[i].Result) {
			t.Fatalf("member %d (%s): recovered result differs from direct run", i, ref.Circuit)
		}
	}

	// The done job whose result body vanished must have been re-run (it
	// cannot be served, but it must not stay a lying "done" either).
	final := waitTerminal(t, svc, jobID(7), 60*time.Second)
	if final.State != StateDone && final.State != StateFailed {
		t.Fatalf("lost-result job state %s", final.State)
	}

	// A second restart must come back terminal with the same summary.
	svc.Close()
	svc2 := New(Config{Workers: 2, Store: diskStore(t, dir)})
	defer svc2.Close()
	again, err := svc2.Sweep("sweep-0001")
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || again.Summary == nil ||
		again.Summary.Markdown != done.Summary.Markdown {
		t.Fatal("second restart changed the recovered sweep")
	}
}

// TestRecoveryCanceledSweep checks that orphaned members of a sweep
// whose cancellation was requested before the crash are not resurrected.
func TestRecoveryCanceledSweep(t *testing.T) {
	dir := t.TempDir()
	st := diskStore(t, dir)
	cfg := tinyCfg()
	spec := JobSpec{Circuit: "s27", Config: cfg}
	specData, _ := json.Marshal(spec)
	sweepSpec, _ := json.Marshal(SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: cfg})
	now := time.Now()
	if err := st.PutSweep(store.SweepRecord{
		ID: "sweep-0001", Seq: 1, State: string(StateRunning), Canceled: true,
		Spec: sweepSpec,
		Members: []store.SweepMemberRecord{
			{JobID: jobID(1), Circuit: "s27", State: string(StateRunning)},
		},
		Created: now,
	}); err != nil {
		t.Fatal(err)
	}
	c := iscas.MustLoad("s27")
	if err := st.PutJob(store.JobRecord{
		ID: jobID(1), Seq: 1, Key: contentKey(c, "", cfg.withDefaults()),
		Circuit: "s27", Spec: specData, SweepID: "sweep-0001", Member: 0,
		State: string(StateRunning), Submitted: now,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 1, Store: diskStore(t, dir)})
	defer svc.Close()
	done := waitSweepTerminal(t, svc, "sweep-0001")
	if done.State != StateCanceled {
		t.Fatalf("canceled sweep recovered as %s", done.State)
	}
	st1 := waitTerminal(t, svc, jobID(1), 10*time.Second)
	if st1.State != StateCanceled {
		t.Fatalf("member of canceled sweep recovered as %s", st1.State)
	}
}

// TestRecoveryCanceledSweepLostMembers checks that members of a canceled
// sweep that never reached the queue end canceled at recovery instead of
// being re-submitted, and that a racing member mints no legs.
func TestRecoveryCanceledSweepLostMembers(t *testing.T) {
	for _, strat := range []string{"", strategy.Race} {
		t.Run("strategy="+strat, func(t *testing.T) {
			mem := store.NewMemory()
			cfg := tinyCfg()
			cfg.Strategy = strat
			if err := mem.PutSweep(store.SweepRecord{
				ID: "sweep-0001", Seq: 1, State: string(StateRunning), Canceled: true,
				Spec: mustJSON(t, SweepSpec{
					Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}},
					Config:   cfg,
				}),
				Members: []store.SweepMemberRecord{
					{Circuit: "s27", State: string(StateQueued)},
					{Circuit: "s298", State: string(StateQueued)},
				},
				Created: time.Now(),
			}); err != nil {
				t.Fatal(err)
			}

			svc := New(Config{Workers: 1, Store: mem})
			defer svc.Close()
			done := waitSweepTerminal(t, svc, "sweep-0001")
			if done.State != StateCanceled {
				t.Fatalf("canceled sweep recovered as %s", done.State)
			}
			for i, m := range done.Members {
				if m.State != StateCanceled {
					t.Errorf("member %d (%s) recovered as %s, want canceled", i, m.Circuit, m.State)
				}
			}
			if done.Summary == nil || done.Summary.Canceled != 2 {
				t.Errorf("summary %+v, want 2 canceled", done.Summary)
			}
			if n := svc.Metrics().Store.OrphansRequeued; n != 0 {
				t.Errorf("orphans_requeued = %d, want 0", n)
			}
			if jobs := svc.Jobs(); len(jobs) != 0 {
				t.Errorf("recovery submitted %d jobs for a canceled sweep", len(jobs))
			}
		})
	}
}

func jobID(seq int64) string { return fmt.Sprintf("job-%06d", seq) }

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
