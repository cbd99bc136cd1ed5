package service

import (
	"errors"
	"net/http"
	"strconv"
	"time"
)

// This file is the single HTTP error surface: every 4xx/5xx the service
// writes goes through writeAPIError and carries the same typed envelope
//
//	{"error": {"code": ..., "message": ..., "retry_after_s": ...}}
//
// The code is machine-readable (service.Client classifies retries off
// it) and retry_after_s mirrors the Retry-After header when one applies.
// See API.md "Errors".

// Error codes of the envelope. Stable API surface: clients switch on
// these, so renaming one is a breaking change.
const (
	CodeRateLimited   = "rate_limited"   // 429: per-tenant submission rate exhausted
	CodeQuotaExceeded = "quota_exceeded" // 429: tenant queued-jobs/active-sweeps quota hit
	CodeDegraded      = "degraded"       // 503: this node's store stopped accepting writes
	CodeQueueFull     = "queue_full"     // 503: the submission queue is at capacity
	CodeShuttingDown  = "shutting_down"  // 503: the daemon is draining for exit
	CodeInvalidSpec   = "invalid_spec"   // 400: the spec failed validation
	CodeUnauthorized  = "unauthorized"   // 401: unknown API key
	CodeNotFound      = "not_found"      // 404: no such job or sweep
	CodeNotDone       = "not_done"       // 409: result requested before terminal
	CodeTooLarge      = "too_large"      // 413: sweep exceeds the member cap
	CodeInternal      = "internal"       // 500: unclassified server error
)

// ErrorDetail is the typed payload of every error response.
type ErrorDetail struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable diagnosis.
	Message string `json:"message"`
	// RetryAfterS mirrors the Retry-After header (whole seconds) on
	// 429/503 responses; 0 (omitted) on errors retrying cannot fix.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// errorEnvelope is the wire shape of an error response.
type errorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// writeAPIError writes one enveloped error response, setting the
// Retry-After header when retryAfter is positive.
func writeAPIError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	env := errorEnvelope{Error: ErrorDetail{Code: code, Message: msg}}
	if retryAfter > 0 {
		secs := retryAfterSecs(retryAfter)
		env.Error.RetryAfterS = secs
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, env)
}

// submitError classifies a Submit/SubmitSweep error into the envelope:
// HTTP status, error code, and — for "not now" answers — the honest
// Retry-After. Quota rejections carry the tenant's measured drain rate,
// queue-full the global one, degraded the probe interval (the soonest
// recovery could be detected).
func (s *Service) submitError(err error, now time.Time) (status int, code string, retryAfter time.Duration) {
	var qe *QuotaError
	switch {
	case errors.As(err, &qe):
		return http.StatusTooManyRequests, CodeQuotaExceeded, qe.RetryAfter
	case errors.Is(err, ErrDegraded):
		return http.StatusServiceUnavailable, CodeDegraded, s.cfg.ProbeInterval
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable, CodeQueueFull, s.queueRetryAfter(now)
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, CodeShuttingDown, time.Second
	case errors.Is(err, ErrSweepTooLarge):
		return http.StatusRequestEntityTooLarge, CodeTooLarge, 0
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized, CodeUnauthorized, 0
	default:
		return http.StatusBadRequest, CodeInvalidSpec, 0
	}
}
