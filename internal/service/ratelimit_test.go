package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"seqbist/internal/store"
)

// TestRateLimitSubmissions drives the submission endpoints past the
// per-client budget and checks the 429 contract: Retry-After in
// seconds, a structured error body, counters ticking, and read
// endpoints unaffected.
func TestRateLimitSubmissions(t *testing.T) {
	svc := New(Config{Workers: 1, RateLimit: 0.5, RateBurst: 2})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	post := func(path string) *http.Response {
		t.Helper()
		// A malformed body still spends a token — limiting must happen
		// before any parsing or queueing work.
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if got := post("/v1/jobs").StatusCode; got != http.StatusBadRequest {
		t.Fatalf("first submission: %d, want 400", got)
	}
	if got := post("/v1/sweeps").StatusCode; got != http.StatusBadRequest {
		t.Fatalf("second submission: %d, want 400 (jobs and sweeps share the budget)", got)
	}
	resp := post("/v1/jobs")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission: %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}

	// Read endpoints stay unlimited.
	for i := 0; i < 5; i++ {
		get, err := http.Get(srv.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		get.Body.Close()
		if get.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs under limit pressure: %d", get.StatusCode)
		}
	}
	if n := svc.Metrics().HTTP.RateLimited; n < 1 {
		t.Fatalf("rate_limited counter = %d, want >= 1", n)
	}

	// The bucket refills: after Retry-After elapses a submission passes.
	time.Sleep(time.Duration(retry)*time.Second + 100*time.Millisecond)
	if got := post("/v1/jobs").StatusCode; got != http.StatusBadRequest {
		t.Fatalf("post-refill submission: %d, want 400", got)
	}
}

// TestPrometheusExposition checks the text-format surface: every
// metric family documented for the JSON form appears under its
// seqbist_ name, including the store and cluster sections.
func TestPrometheusExposition(t *testing.T) {
	svc := New(Config{
		Workers: 1,
		Store:   store.NewMemory(), NodeID: "prom",
		LeaseTTL: time.Second, PollInterval: 10 * time.Millisecond,
	})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"seqbist_jobs_submitted_total",
		"seqbist_jobs_by_state",
		"seqbist_sweeps_started_total",
		"seqbist_cache_hits_total",
		"seqbist_fsim_proc2_sims_total",
		"seqbist_phase_seconds_total",
		"seqbist_http_rate_limited_total",
		"seqbist_store_records_written_total",
		"seqbist_cluster_claims_won_total",
		"seqbist_cluster_node{node_id=\"prom\"}",
		"# TYPE seqbist_jobs_submitted_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, body)
		}
	}

	// The default format stays JSON.
	jresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default /metrics content type %q", ct)
	}
}
