package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal HTTP client for a running seqbist daemon, shared by
// the `seqbist -sweep` subcommand, the examples, and the end-to-end
// tests. It speaks the /v1 API documented in API.md.
//
// Every request retries transient failures — network errors, 429 (rate
// limited), and 503 (queue full, shutting down, or a degraded node whose
// store stopped accepting writes) — with exponential backoff, full
// jitter, and the server's Retry-After header honored when present. A
// cluster behind a round-robin address thus degrades gracefully: the
// retry lands on a healthy peer or waits out the probe interval the
// degraded node advertised. Retries are bounded (MaxRetries) and abort
// as soon as ctx is canceled.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient, when nil, falls back to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds the retry attempts *after* the first try; 0
	// means the default (4). Negative disables retrying entirely.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (doubled per attempt,
	// capped at 5s, jittered to a uniform random fraction); 0 means the
	// default (200ms). A server Retry-After overrides the computed delay.
	RetryBaseDelay time.Duration
	// APIKey, when non-empty, is sent as "Authorization: Bearer <key>"
	// so the daemon attributes submissions to the matching tenant. Empty
	// submits as the anonymous tenant.
	APIKey string
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 4
	default:
		return c.MaxRetries
	}
}

func (c *Client) baseDelay() time.Duration {
	if c.RetryBaseDelay > 0 {
		return c.RetryBaseDelay
	}
	return 200 * time.Millisecond
}

// apiError is the structured error body every non-2xx response carries:
// the typed envelope of errors.go.
type apiError struct {
	Error ErrorDetail `json:"error"`
}

// detail extracts the typed detail; ok reports whether anything usable
// was present. A body of another shape (a proxy's page, say) decodes to
// nothing and the caller falls back to the HTTP status.
func (ae *apiError) detail() (ErrorDetail, bool) {
	d := ae.Error
	return d, d.Code != "" || d.Message != ""
}

// retryableStatus reports whether an HTTP status is worth retrying: the
// server said "not now", not "never". The status fallback applies when
// the body carried no machine-readable code (an old server, or a proxy
// answering for it).
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryableCode classifies the envelope's error code. Codes are the
// authoritative retry signal: they distinguish "not now" (rate budget,
// quota, full queue, degraded or draining node — all of which a later
// attempt, possibly on another cluster member, can succeed at) from
// "never" (invalid spec, unknown key, not found).
func retryableCode(code string) bool {
	switch code {
	case CodeRateLimited, CodeQuotaExceeded, CodeQueueFull, CodeDegraded, CodeShuttingDown:
		return true
	}
	return false
}

// backoffDelay computes the sleep before retry attempt (1-based),
// honoring the server's Retry-After when it gave one and otherwise
// applying full-jitter exponential backoff: uniform in (0, base·2^(n-1)],
// capped at 5s. Full jitter desynchronizes a fleet of clients hammering
// a recovering node.
func (c *Client) backoffDelay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := c.baseDelay() << (attempt - 1)
	if limit := 5 * time.Second; d > limit {
		d = limit
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// parseRetryAfter reads a Retry-After header (delta-seconds form; the
// HTTP-date form is not produced by this server and parses as 0).
func parseRetryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx waits for d or until ctx is canceled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do issues one JSON request — retried per the Client's policy — and
// decodes the response into out (when non-nil), translating structured
// error bodies into Go errors. The request body is marshaled once and
// replayed from memory on each attempt.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.attempt(ctx, method, path, payload)
		if err == nil {
			if resp.StatusCode < 300 {
				defer resp.Body.Close()
				if out == nil {
					return nil
				}
				return json.NewDecoder(resp.Body).Decode(out)
			}
			var ae apiError
			retry := retryableStatus(resp.StatusCode)
			if json.NewDecoder(resp.Body).Decode(&ae) == nil {
				if d, ok := ae.detail(); ok {
					if d.Code != "" {
						retry = retryableCode(d.Code)
						lastErr = fmt.Errorf("%s %s: %s (%s, HTTP %d)", method, path, d.Message, d.Code, resp.StatusCode)
					} else {
						lastErr = fmt.Errorf("%s %s: %s (HTTP %d)", method, path, d.Message, resp.StatusCode)
					}
				} else {
					lastErr = fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
				}
			} else {
				lastErr = fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
			}
			_ = resp.Body.Close() // error body already consumed
			if !retry {
				return lastErr
			}
		} else {
			if ctx.Err() != nil {
				return err // canceled, not transient
			}
			lastErr = err // transport error: connection refused, reset, timeout
		}
		if attempt >= c.maxRetries() {
			if attempt > 0 {
				return fmt.Errorf("%w (after %d retries)", lastErr, attempt)
			}
			return lastErr
		}
		if err := sleepCtx(ctx, c.backoffDelay(attempt+1, parseRetryAfter(resp))); err != nil {
			return lastErr
		}
	}
}

// attempt issues one un-retried request.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	return c.httpClient().Do(req)
}

// SubmitJob submits one synthesis job.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// JobStatus fetches one job's status.
func (c *Client) JobStatus(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// JobResult fetches a finished job's result.
func (c *Client) JobResult(ctx context.Context, id string) (*Result, error) {
	var res Result
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// SubmitSweep submits a batch sweep.
func (c *Client) SubmitSweep(ctx context.Context, spec SweepSpec) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", spec, &st)
	return st, err
}

// Sweep fetches one sweep's status (the polling fallback to streaming).
func (c *Client) Sweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// CancelSweep cancels every member of the sweep.
func (c *Client) CancelSweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// Metrics fetches the daemon's operational counters.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	var snap MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &snap)
	return snap, err
}

// StreamSweep follows the sweep's NDJSON event stream, invoking fn once
// per event in order, until the sweep finishes (nil), fn returns an error
// (that error), or ctx is canceled. The terminal "sweep_done" event
// carries the summary. A stream cut mid-flight (daemon restart, network
// blip) reconnects with ?seq=<next> — the server replays the event log
// from exactly the first unseen event — bounded by the same retry budget
// as single requests.
func (c *Client) StreamSweep(ctx context.Context, id string, fn func(SweepEvent) error) error {
	next := 0
	var lastErr error
	for attempt := 0; ; attempt++ {
		before := next
		err := c.streamOnce(ctx, id, &next, fn)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || isTerminalStreamErr(err) {
			return err
		}
		if next > before {
			attempt = 0 // progress resets the budget: the stream works, it just cut out
		}
		lastErr = err
		if attempt >= c.maxRetries() {
			if attempt > 0 {
				return fmt.Errorf("%w (after %d retries)", lastErr, attempt)
			}
			return lastErr
		}
		if err := sleepCtx(ctx, c.backoffDelay(attempt+1, 0)); err != nil {
			return lastErr
		}
	}
}

// streamErr wraps a stream failure that retrying cannot fix (a non-OK
// HTTP status, or the event callback rejecting an event).
type streamErr struct{ err error }

func (e *streamErr) Error() string { return e.err.Error() }
func (e *streamErr) Unwrap() error { return e.err }

func isTerminalStreamErr(err error) bool {
	var se *streamErr
	return errors.As(err, &se)
}

// streamOnce follows one connection's worth of the event stream,
// advancing *next per delivered event so a reconnect resumes exactly
// where this attempt stopped.
func (c *Client) streamOnce(ctx context.Context, id string, next *int, fn func(SweepEvent) error) error {
	url := c.url("/v1/sweeps/" + id + "/events")
	if *next > 0 {
		url += "?seq=" + strconv.Itoa(*next)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return &streamErr{err}
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err // transport error: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var ae apiError
		if json.NewDecoder(resp.Body).Decode(&ae) == nil {
			if d, ok := ae.detail(); ok {
				return &streamErr{fmt.Errorf("stream sweep %s: %s (HTTP %d)", id, d.Message, resp.StatusCode)}
			}
		}
		return &streamErr{fmt.Errorf("stream sweep %s: HTTP %d", id, resp.StatusCode)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20) // results on member events can be large
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev SweepEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("stream sweep %s: bad event line: %v", id, err)
		}
		if err := fn(ev); err != nil {
			return &streamErr{err}
		}
		*next++
	}
	if err := sc.Err(); err != nil {
		return err // connection cut mid-stream: retryable
	}
	return nil
}

// RunSweep is the full client-side batch path: submit the sweep, stream
// its events (forwarding each to fn when non-nil), and return the
// terminal sweep status including the summary.
func (c *Client) RunSweep(ctx context.Context, spec SweepSpec, fn func(SweepEvent) error) (SweepStatus, error) {
	st, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		return st, err
	}
	err = c.StreamSweep(ctx, st.ID, func(ev SweepEvent) error {
		if fn != nil {
			return fn(ev)
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	return c.Sweep(ctx, st.ID)
}
