package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"seqbist/internal/store"
)

// flakyStore wraps a real store with a switchable write fault: while
// failing, every mutating operation reports ENOSPC (what a full disk
// looks like to the service). Reads always pass through, like the
// FlagFaultFS the chaos harness uses.
type flakyStore struct {
	store.Store
	mu      sync.Mutex
	failing bool
	writes  int // successful mutating calls, for replay assertions
}

func (f *flakyStore) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

func (f *flakyStore) gate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return fmt.Errorf("flaky store: %w", syscall.ENOSPC)
	}
	f.writes++
	return nil
}

func (f *flakyStore) PutJob(rec store.JobRecord) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.PutJob(rec)
}

func (f *flakyStore) DeleteJob(id string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.DeleteJob(id)
}

func (f *flakyStore) PutSweep(rec store.SweepRecord) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.PutSweep(rec)
}

func (f *flakyStore) DeleteSweep(id string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.DeleteSweep(id)
}

func (f *flakyStore) AppendEvent(rec store.EventRecord) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.AppendEvent(rec)
}

func (f *flakyStore) PutResult(key string, body []byte) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.PutResult(key, body)
}

func (f *flakyStore) DeleteResult(key string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.DeleteResult(key)
}

func (f *flakyStore) ClaimJob(id, node string, ttl time.Duration) (bool, error) {
	if err := f.gate(); err != nil {
		return false, err
	}
	return f.Store.ClaimJob(id, node, ttl)
}

func (f *flakyStore) RenewLease(id, node string, ttl time.Duration) (bool, error) {
	if err := f.gate(); err != nil {
		return false, err
	}
	return f.Store.RenewLease(id, node, ttl)
}

func (f *flakyStore) ReleaseJob(id, node string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.ReleaseJob(id, node)
}

func (f *flakyStore) Heartbeat(rec store.NodeRecord) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Store.Heartbeat(rec)
}

// waitDegraded polls the health flag until it reaches want.
func waitDegraded(t *testing.T, svc *Service, want bool, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for svc.degraded.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("degraded did not become %v within %v", want, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDegradeParkProbeRecover walks the full state machine: a persist
// failure degrades the node (in-flight work keeps finishing, results
// parked), new submissions bounce with ErrDegraded, and once the disk
// recovers the probe replays every parked record and flips healthy —
// with the replayed state actually in the store.
func TestDegradeParkProbeRecover(t *testing.T) {
	fs := &flakyStore{Store: store.NewMemory()}
	svc := New(Config{Workers: 2, Store: fs, ProbeInterval: 20 * time.Millisecond})
	defer svc.Close()

	// Healthy first: one job lands durably.
	st0, err := svc.Submit(fastSpec("s27", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, st0.ID, 60*time.Second)

	// The disk fills. The next submission is still *accepted* — the
	// failure happens on its persist, which parks and degrades.
	fs.setFailing(true)
	st1, err := svc.Submit(fastSpec("s27", 2))
	if err != nil {
		t.Fatalf("the degrading submission itself must be accepted: %v", err)
	}
	if !svc.degraded.Load() {
		t.Fatal("persist failure must degrade the node")
	}
	if svc.parkedCount() == 0 {
		t.Fatal("the failed write must be parked, not dropped")
	}

	// New obligations are refused, with the typed error.
	if _, err := svc.Submit(fastSpec("s27", 3)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded, got %v", err)
	}
	if _, err := svc.SubmitSweep(SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: tinyCfg()}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("sweep: want ErrDegraded, got %v", err)
	}
	if ready, reason := svc.Readiness(); ready || !strings.Contains(reason, "degraded") {
		t.Fatalf("Readiness() = %v %q, want degraded refusal", ready, reason)
	}

	// In-flight work still finishes while degraded; its terminal record
	// parks too (no live write attempted).
	fin := waitTerminal(t, svc, st1.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("in-flight job must finish while degraded, got %s (%s)", fin.State, fin.Error)
	}
	snap := svc.Metrics()
	if snap.Store == nil || !snap.Store.Degraded || snap.Store.ParkedRecords == 0 {
		t.Fatalf("metrics must report the degradation: %+v", snap.Store)
	}

	// Space frees; the probe replays the parked records and recovers.
	fs.setFailing(false)
	waitDegraded(t, svc, false, 5*time.Second)
	if n := svc.parkedCount(); n != 0 {
		t.Fatalf("recovery left %d parked records", n)
	}

	// The replay was real: the store holds job st1 terminal, with its
	// result body (persistResult parked it alongside the job record).
	state, err := fs.Store.Load()
	if err != nil {
		t.Fatal(err)
	}
	var rec *store.JobRecord
	for i := range state.Jobs {
		if state.Jobs[i].ID == st1.ID {
			rec = &state.Jobs[i]
		}
	}
	if rec == nil || rec.State != string(StateDone) {
		t.Fatalf("parked job record did not replay: %+v", rec)
	}
	if _, ok, err := fs.Store.Result(rec.Key); err != nil || !ok {
		t.Fatalf("parked result body did not replay (ok=%v err=%v)", ok, err)
	}

	// And the node takes work again.
	st3, err := svc.Submit(fastSpec("s27", 3))
	if err != nil {
		t.Fatalf("recovered node must accept work: %v", err)
	}
	waitTerminal(t, svc, st3.ID, 60*time.Second)
	if ready, reason := svc.Readiness(); !ready {
		t.Fatalf("recovered node must be ready, got %q", reason)
	}
}

// TestDegradedHTTP pins the HTTP surface of degradation: submissions
// answer 503 with an honest Retry-After, /readyz flips to 503, and
// /healthz stays 200 (the process is alive and still finishing work).
func TestDegradedHTTP(t *testing.T) {
	fs := &flakyStore{Store: store.NewMemory()}
	svc := New(Config{Workers: 1, Store: fs, ProbeInterval: 3 * time.Second})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /readyz: %d", resp.StatusCode)
	}

	// Trip the state machine with one failing persist.
	fs.setFailing(true)
	if _, err := svc.Submit(fastSpec("s27", 1)); err != nil {
		t.Fatal(err)
	}
	waitDegraded(t, svc, true, time.Second)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"circuit":"s27","config":{"n":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST /v1/jobs: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 must carry Retry-After")
	}
	var ae errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || !strings.Contains(ae.Error.Message, "degraded") {
		t.Fatalf("degraded 503 body must say why: %q (%v)", ae.Error.Message, err)
	}
	if ae.Error.Code != CodeDegraded {
		t.Fatalf("degraded 503 code %q, want %q", ae.Error.Code, CodeDegraded)
	}

	if resp := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /readyz: %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 must carry Retry-After")
	}

	hz := get("/healthz")
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz: %d, want 200 (liveness, not readiness)", hz.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil || health.Status != "degraded" {
		t.Fatalf("degraded /healthz status = %q (%v)", health.Status, err)
	}
}

// TestRecoverCorruptSweepSpec pins the satellite fix: a stored sweep
// whose spec no longer unmarshals must fail its lost members loudly at
// recovery instead of silently re-submitting from a zero-valued spec.
func TestRecoverCorruptSweepSpec(t *testing.T) {
	mem := store.NewMemory()
	if err := mem.PutSweep(store.SweepRecord{
		ID:      "sweep-0001",
		Seq:     1,
		State:   string(StateRunning),
		Spec:    json.RawMessage(`{corrupt`),
		Created: time.Now(),
		Members: []store.SweepMemberRecord{
			// The member's job record is gone (its result was never
			// spilled): recovery would normally re-submit it from the
			// sweep spec.
			{JobID: "job-000001", Circuit: "s27", State: string(StateQueued)},
		},
	}); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 1, Store: mem})
	defer svc.Close()

	sw := waitSweepTerminal(t, svc, "sweep-0001")
	if len(sw.Members) != 1 {
		t.Fatalf("want 1 member, got %d", len(sw.Members))
	}
	m := sw.Members[0]
	if m.State != StateFailed {
		t.Fatalf("lost member under a corrupt spec must fail, got %s", m.State)
	}
	if !strings.Contains(m.Error, "corrupt") {
		t.Fatalf("member error must name the corruption, got %q", m.Error)
	}
}

// TestRecoverCorruptJobSpec pins the one rule for a job record whose
// spec no longer unmarshals, shared by recovery, adoption and claim
// mirrors: the record is kept (a done job's status and result survive
// the restart) and the corruption is counted; a non-terminal one fails
// with a typed error once claimed instead of running from a zero spec.
func TestRecoverCorruptJobSpec(t *testing.T) {
	mem := store.NewMemory()
	body, err := json.Marshal(&Result{Circuit: "s27", Strategy: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.PutResult("done-key", body); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, rec := range []store.JobRecord{
		{ID: jobID(1), Seq: 1, Key: "done-key", Circuit: "s27", Member: -1,
			Spec: json.RawMessage(`{corrupt`), State: string(StateDone),
			Submitted: now, Finished: now},
		{ID: jobID(2), Seq: 2, Key: "queued-key", Circuit: "s27", Member: -1,
			Spec: json.RawMessage(`{corrupt`), State: string(StateQueued),
			Submitted: now},
	} {
		if err := mem.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}

	svc := New(Config{Workers: 1, Store: mem})
	defer svc.Close()

	st, err := svc.Status(jobID(1))
	if err != nil || st.State != StateDone {
		t.Fatalf("done job with a corrupt spec after restart: %+v, %v; want done", st, err)
	}
	if res, err := svc.Result(jobID(1)); err != nil || res.Circuit != "s27" {
		t.Fatalf("done job lost its stored result: %+v, %v", res, err)
	}
	if n := svc.Metrics().Store.JobsRecovered; n != 2 {
		t.Fatalf("jobs_recovered = %d, want 2 (corrupt records are kept)", n)
	}
	if n := svc.Metrics().Store.WriteErrors; n < 2 {
		t.Fatalf("store errors = %d, want each corrupt spec counted", n)
	}
	fin := waitTerminal(t, svc, jobID(2), 10*time.Second)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "cluster claim") {
		t.Fatalf("queued job with a corrupt spec ended %s (%q), want failed by the claim", fin.State, fin.Error)
	}
}
