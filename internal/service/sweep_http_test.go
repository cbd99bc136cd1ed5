package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"seqbist/internal/bench"
	"seqbist/internal/iscas"
)

// TestSweepHTTPStreaming drives the full batch path over a live server
// with the Client: submit a sweep, follow the NDJSON event stream, and
// check the terminal snapshot against the streamed summary.
func TestSweepHTTPStreaming(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()

	// The raw stream must be NDJSON: one JSON object per line.
	st, err := cl.SubmitSweep(ctx, SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}},
		Config:   tinyCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	resp.Body.Close()

	var types []string
	var doneMembers int
	var streamed *SweepSummary
	err = cl.StreamSweep(ctx, st.ID, func(ev SweepEvent) error {
		types = append(types, ev.Type)
		if ev.Type == "member_update" && ev.Member.State == StateDone {
			doneMembers++
			if ev.Member.Result == nil {
				t.Errorf("done member %d event carries no result", ev.Member.Index)
			}
		}
		if ev.Type == "sweep_done" {
			streamed = ev.Summary
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if types[0] != "sweep_started" || types[len(types)-1] != "sweep_done" {
		t.Fatalf("event order: %v", types)
	}
	if doneMembers != 2 || streamed == nil || streamed.Done != 2 {
		t.Fatalf("stream saw %d done members, summary %+v", doneMembers, streamed)
	}

	// Polling fallback returns the same terminal summary.
	fin, err := cl.Sweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Summary == nil || fin.Summary.Markdown != streamed.Markdown {
		t.Error("polled summary differs from streamed summary")
	}

	// Unknown sweep: structured 404 on both endpoints.
	if _, err := cl.Sweep(ctx, "sweep-9999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown sweep status: %v", err)
	}
	if err := cl.StreamSweep(ctx, "sweep-9999", nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown sweep stream: %v", err)
	}
}

// TestUploadedS27ReproducesEmbedded submits the paper's s27 netlist as an
// uploaded .bench body and checks the result reproduces the embedded-s27
// run exactly (label and wall time aside) — the acceptance check for
// user-supplied circuits.
func TestUploadedS27ReproducesEmbedded(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()

	run := func(spec JobSpec) *Result {
		t.Helper()
		st, err := cl.SubmitJob(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		for {
			cur, err := cl.JobStatus(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cur.State.Terminal() {
				if cur.State != StateDone {
					t.Fatalf("job %s: %s (%s)", st.ID, cur.State, cur.Error)
				}
				break
			}
		}
		res, err := cl.JobResult(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	embedded := run(JobSpec{Circuit: "s27", Config: tinyCfg()})
	uploaded := run(JobSpec{Bench: iscas.S27Source, Config: tinyCfg()})
	if uploaded.Circuit != "upload" || embedded.Circuit != "s27" {
		t.Fatalf("labels: %q / %q", uploaded.Circuit, embedded.Circuit)
	}
	u := *uploaded
	u.Circuit, u.ElapsedMS = embedded.Circuit, embedded.ElapsedMS
	if !reflect.DeepEqual(u, *embedded) {
		t.Errorf("uploaded s27 does not reproduce the embedded result:\nupload:   %+v\nembedded: %+v", u, *embedded)
	}
}

// TestBenchUploadErrors exercises the .bench parser's error paths through
// the upload endpoints: every malformed body must come back as a
// structured 400 whose message locates the defect, on both the job and
// sweep routes, without queueing any work.
func TestBenchUploadErrors(t *testing.T) {
	svc := New(Config{
		Workers: 1,
		// Tiny limits so the oversize cases stay test-sized.
		BenchLimits: bench.Limits{MaxBytes: 2048, MaxSignals: 64},
	})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name    string
		bench   string
		wantMsg string
	}{
		{
			name:    "empty input",
			bench:   "# only a comment\n\n",
			wantMsg: "empty netlist",
		},
		{
			name:    "undefined signal",
			bench:   "INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n",
			wantMsg: "ghost is never driven",
		},
		{
			name:    "duplicate definition",
			bench:   "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\nz = OR(a, b)\n",
			wantMsg: "driven by multiple gates",
		},
		{
			name:    "malformed gate",
			bench:   "INPUT(a)\nOUTPUT(z)\nz = AND(a\n",
			wantMsg: "malformed gate expression",
		},
		{
			name:    "oversized: too many signals",
			bench:   manySignalsBench(200),
			wantMsg: "more than 64 signals",
		},
		{
			name:    "oversized: too many bytes",
			bench:   "# " + strings.Repeat("x", 4096) + "\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
			wantMsg: "input exceeds size limit",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Job upload route. The body is the typed envelope.
			var errBody errorEnvelope
			code := httpJSON(t, client, "POST", ts.URL+"/v1/jobs",
				JobSpec{Bench: tc.bench, Config: tinyCfg()}, &errBody)
			if code != http.StatusBadRequest {
				t.Fatalf("job upload: status %d (%s)", code, errBody.Error.Message)
			}
			if !strings.Contains(errBody.Error.Message, tc.wantMsg) {
				t.Errorf("job error %q does not mention %q", errBody.Error.Message, tc.wantMsg)
			}
			if errBody.Error.Code != CodeInvalidSpec {
				t.Errorf("job error code %q, want %q", errBody.Error.Code, CodeInvalidSpec)
			}
			// Sweep upload route: same body as a member, same 400, and the
			// member index is located.
			code = httpJSON(t, client, "POST", ts.URL+"/v1/sweeps",
				SweepSpec{
					Circuits: []CircuitRef{{Circuit: "s27"}, {Bench: tc.bench}},
					Config:   tinyCfg(),
				}, &errBody)
			if code != http.StatusBadRequest {
				t.Fatalf("sweep upload: status %d (%s)", code, errBody.Error.Message)
			}
			if !strings.Contains(errBody.Error.Message, "member 1") || !strings.Contains(errBody.Error.Message, tc.wantMsg) {
				t.Errorf("sweep error %q does not locate member 1 / %q", errBody.Error.Message, tc.wantMsg)
			}
		})
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs queued by rejected uploads", len(jobs))
	}
}

// TestMetricsEndpoint checks GET /metrics accumulates across job and
// sweep work: submissions, completions, cache hits, simulation counters,
// and per-phase wall time.
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()

	// Run the same one-member sweep twice: the second is a pure cache hit.
	spec := SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: tinyCfg()}
	for i := 0; i < 2; i++ {
		if _, err := cl.RunSweep(ctx, spec, nil); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Jobs.Submitted != 2 || snap.Jobs.Done != 2 {
		t.Errorf("jobs: %+v", snap.Jobs)
	}
	if snap.Sweeps.Started != 2 || snap.Sweeps.Finished != 2 {
		t.Errorf("sweeps: %+v", snap.Sweeps)
	}
	if snap.Cache.Hits != 1 {
		t.Errorf("cache hits %d, want 1 (resubmitted sweep)", snap.Cache.Hits)
	}
	if snap.Fsim.Proc2Sims < 1 || snap.Fsim.PatternsApplied < 1 {
		t.Errorf("fsim counters: %+v", snap.Fsim)
	}
	if snap.PhaseSeconds["select"] <= 0 || snap.PhaseSeconds["atpg"] <= 0 {
		t.Errorf("phase seconds: %+v", snap.PhaseSeconds)
	}
	if snap.Workers != 1 {
		t.Errorf("workers %d", snap.Workers)
	}
}

// manySignalsBench builds a valid-shaped buffer chain with n+3 signals,
// exceeding small MaxSignals limits.
func manySignalsBench(n int) string {
	var sb strings.Builder
	sb.WriteString("INPUT(a)\nOUTPUT(z)\n")
	prev := "a"
	for i := 0; i < n; i++ {
		cur := fmt.Sprintf("g%d", i)
		fmt.Fprintf(&sb, "%s = BUF(%s)\n", cur, prev)
		prev = cur
	}
	fmt.Fprintf(&sb, "z = BUF(%s)\n", prev)
	return sb.String()
}

// TestSweepEventStreamSeqOffset checks the ?seq=N resume parameter: a
// reconnecting client gets exactly the events it has not seen yet, in
// order, and a malformed offset is a structured 400.
func TestSweepEventStreamSeqOffset(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	st, err := cl.SubmitSweep(context.Background(), SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}},
		Config:   tinyCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSweepTerminal(t, svc, st.ID)
	all, _, _, err := svc.SweepEvents(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 3 {
		t.Fatalf("expected at least 3 events, got %d", len(all))
	}

	resume := len(all) - 2
	resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/sweeps/%s/events?seq=%d", ts.URL, st.ID, resume))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := io.ReadFull(resp.Body, body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body[:n])), "\n")
	if len(lines) != 2 {
		t.Fatalf("resume at %d: expected 2 lines, got %d: %q", resume, len(lines), lines)
	}
	var first SweepEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Seq != resume {
		t.Fatalf("resumed stream starts at seq %d, want %d", first.Seq, resume)
	}

	if resp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + st.ID + "/events?seq=frogs"); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad seq: status %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	}
}
