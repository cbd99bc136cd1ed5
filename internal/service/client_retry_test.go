package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetriesTransient503 pins the retry loop: a daemon answering
// 503 (degraded or full) is retried with backoff until it recovers, the
// request body is replayed intact on every attempt, and Retry-After is
// honored when present.
func TestClientRetriesTransient503(t *testing.T) {
	var calls atomic.Int32
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 1024)
		n, _ := r.Body.Read(buf)
		bodies = append(bodies, string(buf[:n]))
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"service: node degraded, persistence failing"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-000001","state":"queued"}`))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond}
	start := time.Now()
	st, err := c.SubmitJob(context.Background(), JobSpec{Circuit: "s27"})
	if err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if st.ID != "job-000001" {
		t.Fatalf("bad status decoded: %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("want 3 attempts, got %d", got)
	}
	// Retry-After: 1 twice — the waits must actually have happened.
	if e := time.Since(start); e < 2*time.Second {
		t.Fatalf("Retry-After not honored: finished in %v", e)
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("attempt %d replayed a different body:\n%q\n%q", i, bodies[i], bodies[0])
		}
	}
}

// TestClientNoRetryOnClientError pins that 4xx (other than 429) is
// terminal: a bad spec is the caller's bug, not the server's mood.
func TestClientNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid_spec","message":"unknown circuit"}}`))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond}
	_, err := c.SubmitJob(context.Background(), JobSpec{Circuit: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown circuit") {
		t.Fatalf("want the structured error through, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400 must not retry: %d attempts", got)
	}
}

// TestClientRetryBudgetExhausted pins the bound: a server that never
// recovers fails the call after MaxRetries extra attempts, with the
// count in the error.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, MaxRetries: 2, RetryBaseDelay: time.Millisecond}
	_, err := c.SubmitJob(context.Background(), JobSpec{Circuit: "s27"})
	if err == nil || !strings.Contains(err.Error(), "after 2 retries") {
		t.Fatalf("want bounded failure naming the retries, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("want 1 try + 2 retries = 3 attempts, got %d", got)
	}
}

// TestClientRetryCanceledContext pins that cancellation cuts the backoff
// sleep short instead of waiting it out.
func TestClientRetryCanceledContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	c := &Client{BaseURL: srv.URL}
	start := time.Now()
	_, err := c.SubmitJob(ctx, JobSpec{Circuit: "s27"})
	if err == nil {
		t.Fatal("want an error after cancellation")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("cancellation did not cut the Retry-After sleep: %v", e)
	}
}

// TestClientRetriesConnectionRefused pins transport-error retries: the
// daemon is down for the first attempts and comes up before the budget
// runs out.
func TestClientRetriesConnectionRefused(t *testing.T) {
	// A server that is stopped and restarted on the same address.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"job-000001","state":"queued"}`))
	}))
	addr := srv.URL
	srv.Close() // now nothing listens: connection refused

	c := &Client{BaseURL: addr, MaxRetries: 1, RetryBaseDelay: time.Millisecond}
	_, err := c.JobStatus(context.Background(), "job-000001")
	if err == nil {
		t.Fatal("want transport failure with nothing listening")
	}
	if !strings.Contains(err.Error(), "after 1 retries") {
		t.Fatalf("transport errors must consume the retry budget: %v", err)
	}
}

// TestStreamSweepResumesWithSeq pins the reconnect path: a stream cut
// mid-flight resumes at ?seq=<next> and delivers each event exactly
// once.
func TestStreamSweepResumesWithSeq(t *testing.T) {
	events := []string{
		`{"type":"sweep_started","sweep_id":"sweep-0001","seq":0,"state":"running"}`,
		`{"type":"member_update","sweep_id":"sweep-0001","seq":1,"state":"running"}`,
		`{"type":"sweep_done","sweep_id":"sweep-0001","seq":2,"state":"done"}`,
	}
	var conns atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		seq := 0
		if v := r.URL.Query().Get("seq"); v != "" {
			seq = int(v[0] - '0')
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if n == 1 {
			// First connection: one event, then drop the stream mid-way
			// (an unflushed partial line the scanner never sees, followed
			// by a connection close the client must treat as a cut).
			if seq != 0 {
				t.Errorf("first connection got seq=%d", seq)
			}
			w.Write([]byte(events[0] + "\n"))
			w.(http.Flusher).Flush()
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
			return
		}
		for _, ev := range events[seq:] {
			w.Write([]byte(ev + "\n"))
		}
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond}
	var got []int
	err := c.StreamSweep(context.Background(), "sweep-0001", func(ev SweepEvent) error {
		got = append(got, ev.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("stream with reconnect failed: %v", err)
	}
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("want events %v, got %v", want, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("want events %v, got %v (duplicate or lost on resume)", want, got)
		}
	}
	if conns.Load() != 2 {
		t.Fatalf("want 2 connections (cut + resume), got %d", conns.Load())
	}
}

// TestStreamSweepCallbackErrorIsTerminal pins that fn rejecting an event
// aborts the stream without reconnecting.
func TestStreamSweepCallbackErrorIsTerminal(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Write([]byte(`{"type":"sweep_started","sweep_id":"s","seq":0,"state":"running"}` + "\n"))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, RetryBaseDelay: time.Millisecond}
	sentinel := errors.New("stop here")
	err := c.StreamSweep(context.Background(), "s", func(SweepEvent) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("want the callback error through, got %v", err)
	}
	if conns.Load() != 1 {
		t.Fatalf("callback errors must not reconnect: %d connections", conns.Load())
	}
}

// TestClientTypedEnvelopeClassification pins that the typed error code,
// when present, overrides status-based retry classification — and that
// the client authenticates with its APIKey on every attempt.
func TestClientTypedEnvelopeClassification(t *testing.T) {
	var calls atomic.Int32
	var auths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		auths = append(auths, r.Header.Get("Authorization"))
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"quota_exceeded","message":"tenant \"alpha\" over queued_jobs quota (limit 2)","retry_after_s":1},"error_string":"tenant \"alpha\" over queued_jobs quota (limit 2)"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-000002","state":"queued","tenant":"alpha"}`))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, APIKey: "ka", RetryBaseDelay: time.Millisecond}
	st, err := c.SubmitJob(context.Background(), JobSpec{Circuit: "s27"})
	if err != nil {
		t.Fatalf("quota_exceeded must be retried: %v", err)
	}
	if st.Tenant != "alpha" || calls.Load() != 2 {
		t.Fatalf("status %+v after %d calls, want tenant alpha after 2", st, calls.Load())
	}
	for i, a := range auths {
		if a != "Bearer ka" {
			t.Fatalf("attempt %d sent Authorization %q, want Bearer ka", i, a)
		}
	}

	// The reverse override: a 503 carrying a non-retryable typed code
	// fails fast instead of burning the retry budget, and the code is
	// surfaced in the error text.
	var calls2 atomic.Int32
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls2.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"internal","message":"wedged"},"error_string":"wedged"}`))
	}))
	defer srv2.Close()
	c2 := &Client{BaseURL: srv2.URL, RetryBaseDelay: time.Millisecond}
	_, err = c2.SubmitJob(context.Background(), JobSpec{Circuit: "s27"})
	if err == nil || !strings.Contains(err.Error(), "internal") || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("want the typed code and message through, got %v", err)
	}
	if calls2.Load() != 1 {
		t.Fatalf("non-retryable typed code must not retry: %d attempts", calls2.Load())
	}
}
