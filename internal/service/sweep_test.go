package service

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"seqbist/internal/experiments"
	"seqbist/internal/iscas"
)

// tinyCfg keeps sweep tests fast: short ATPG sequences and bounded
// omission budgets cost subsequence quality, never determinism.
func tinyCfg() GenConfig {
	return GenConfig{N: 2, Seed: 1, ATPGMaxLen: 60, MaxOmissionTrials: 10}
}

// waitSweepTerminal polls until the sweep leaves the running state.
func waitSweepTerminal(t *testing.T, svc *Service, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.Sweep(id)
		if err != nil {
			t.Fatalf("sweep %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return SweepStatus{}
}

// TestSweepEndToEnd drives a mixed sweep (registry names + an uploaded
// .bench netlist) through the Service API: fan-out, member completion
// events, summary aggregation, and instant cache hits on resubmission.
func TestSweepEndToEnd(t *testing.T) {
	// One worker makes member order deterministic: the registry s27
	// completes before the structurally identical upload is dequeued, so
	// the upload's cache hit is guaranteed rather than timing-dependent.
	svc := New(Config{Workers: 1, QueueDepth: 16})
	defer svc.Close()

	spec := SweepSpec{
		Circuits: []CircuitRef{
			{Circuit: "s27"},
			{Circuit: "s298"},
			{Bench: iscas.S27Source}, // user-supplied netlist
		},
		Config: tinyCfg(),
	}
	st, err := svc.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 {
		t.Fatalf("members: %d", len(st.Members))
	}
	fin := waitSweepTerminal(t, svc, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state %s, want done", fin.State)
	}
	if fin.Summary == nil || fin.Summary.Done != 3 || fin.Summary.Failed != 0 {
		t.Fatalf("summary: %+v", fin.Summary)
	}
	if len(fin.Summary.Rows) != 3 {
		t.Fatalf("rows: %d", len(fin.Summary.Rows))
	}
	if !strings.Contains(fin.Summary.Markdown, "s298") {
		t.Fatalf("markdown missing s298:\n%s", fin.Summary.Markdown)
	}
	for _, m := range fin.Members {
		if m.State != StateDone || m.Result == nil {
			t.Fatalf("member %d: state %s result %v", m.Index, m.State, m.Result != nil)
		}
	}
	// The uploaded netlist is structurally identical to the registry s27,
	// so its numbers must reproduce the embedded-s27 result exactly; only
	// the label (and wall time) may differ. It must NOT share the
	// registry member's cache entry — the label is part of the result.
	up, emb := *fin.Members[2].Result, *fin.Members[0].Result
	if fin.Members[2].CacheHit {
		t.Error("upload shared the registry s27 cache entry despite a different label")
	}
	if up.Circuit != "upload" {
		t.Errorf("upload labeled %q", up.Circuit)
	}
	up.Circuit, up.ElapsedMS = emb.Circuit, emb.ElapsedMS
	if !reflect.DeepEqual(up, emb) {
		t.Errorf("uploaded s27 result differs from embedded:\nupload:   %+v\nembedded: %+v", up, emb)
	}

	// Event log: contiguous seq, starts with sweep_started, ends with
	// sweep_done carrying the summary.
	events, _, done, err := svc.SweepEvents(st.ID, 0)
	if err != nil || !done {
		t.Fatalf("events: err=%v done=%v", err, done)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[0].Type != "sweep_started" {
		t.Fatalf("first event %q", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != "sweep_done" || last.Summary == nil {
		t.Fatalf("last event %q summary=%v", last.Type, last.Summary != nil)
	}
	if last.Summary.Markdown != fin.Summary.Markdown {
		t.Error("streamed summary differs from snapshot summary")
	}

	// Resubmitting the identical sweep completes from cache alone.
	st2, err := svc.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitSweepTerminal(t, svc, st2.ID)
	if fin2.Summary.CacheHits != 3 {
		t.Errorf("resubmission cache hits %d, want 3", fin2.Summary.CacheHits)
	}
	if fin2.Summary.Markdown != fin.Summary.Markdown {
		t.Error("cached sweep summary differs from original")
	}
}

// TestSweepDifferential is the acceptance check for the batch subsystem:
// one sweep over the full Table-3 registry must yield a summary
// bit-for-bit identical to running the pipeline directly (service.
// Synthesize per circuit, aggregated by experiments.SweepTable) on the
// same configs — the queue, cache, JSON round-trip, and event stream may
// not perturb a single bit of the results.
func TestSweepDifferential(t *testing.T) {
	names := iscas.TableNames()
	switch {
	case testing.Short():
		names = names[:4]
	case raceEnabled:
		// The race detector multiplies simulation cost several-fold; drop
		// the two scaled-down giants (s5378, s35932) and keep the rest of
		// the registry, which still exercises every code path.
		names = names[:len(names)-2]
	}
	cfg := tinyCfg()

	// Direct path: no service, no HTTP.
	var rows []experiments.SweepRow
	for _, name := range names {
		res, err := Synthesize(context.Background(), JobSpec{Circuit: name, Config: cfg})
		if err != nil {
			t.Fatalf("direct %s: %v", name, err)
		}
		rows = append(rows, res.SweepRow())
	}
	want := experiments.SweepTable(rows)

	// Service path.
	svc := New(Config{Workers: 4, QueueDepth: 32})
	defer svc.Close()
	refs := make([]CircuitRef, len(names))
	for i, name := range names {
		refs[i] = CircuitRef{Circuit: name}
	}
	st, err := svc.SubmitSweep(SweepSpec{Circuits: refs, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitSweepTerminal(t, svc, st.ID)
	if fin.State != StateDone || fin.Summary == nil {
		t.Fatalf("sweep state %s", fin.State)
	}
	if fin.Summary.Done != len(names) {
		t.Fatalf("done %d/%d (summary %+v)", fin.Summary.Done, len(names), fin.Summary)
	}
	if fin.Summary.Markdown != want {
		t.Errorf("sweep summary differs from direct experiments aggregation:\n--- sweep ---\n%s\n--- direct ---\n%s",
			fin.Summary.Markdown, want)
	}
	// Per-member results must match the direct runs field for field
	// (wall time excepted — it is the one nondeterministic field).
	for i, m := range fin.Members {
		if m.Result.SweepRow() != rows[i] {
			t.Errorf("%s: sweep row %+v, direct row %+v", names[i], m.Result.SweepRow(), rows[i])
		}
	}
}

// TestSweepCancel verifies sweep-level cancellation: with one worker and
// several members, canceling mid-flight terminates every member and the
// sweep reaches the canceled state with a partial summary.
func TestSweepCancel(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 16})
	defer svc.Close()

	// s1423 is slow enough (74 DFFs) to still be running when we cancel.
	st, err := svc.SubmitSweep(SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s1423"}, {Circuit: "s1488"}, {Circuit: "s820"}},
		Config:   GenConfig{N: 2, Seed: 1, ATPGMaxLen: 600, MaxOmissionTrials: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CancelSweep(st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitSweepTerminal(t, svc, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}
	if fin.Summary == nil || fin.Summary.Canceled == 0 {
		t.Fatalf("summary: %+v", fin.Summary)
	}
	for _, m := range fin.Members {
		if !m.State.Terminal() {
			t.Errorf("member %d left in state %s", m.Index, m.State)
		}
	}
	// Canceling a terminal sweep is a no-op.
	if _, err := svc.CancelSweep(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CancelSweep("sweep-9999"); err != ErrSweepNotFound {
		t.Fatalf("unknown sweep cancel: %v", err)
	}
}

// TestSweepValidation covers the request-level rejections: empty sweeps,
// member caps, and malformed members rejecting the sweep atomically
// (nothing queued).
func TestSweepValidation(t *testing.T) {
	svc := New(Config{Workers: 1, MaxSweepMembers: 2})
	defer svc.Close()

	if _, err := svc.SubmitSweep(SweepSpec{}); err == nil {
		t.Error("empty sweep accepted")
	}
	refs := []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}, {Circuit: "s344"}}
	if _, err := svc.SubmitSweep(SweepSpec{Circuits: refs, Config: tinyCfg()}); err == nil {
		t.Error("oversized sweep accepted")
	}
	// One bad member poisons the whole sweep before any work starts.
	_, err := svc.SubmitSweep(SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "nope"}},
		Config:   tinyCfg(),
	})
	if err == nil {
		t.Fatal("sweep with unknown member accepted")
	}
	if !strings.Contains(err.Error(), "member 1") {
		t.Errorf("error does not locate the member: %v", err)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs queued by rejected sweeps", len(jobs))
	}
}
