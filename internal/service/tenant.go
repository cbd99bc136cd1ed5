package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// This file is the tenant model: who a submission belongs to, what that
// tenant is allowed to queue, and how fast its work has been draining.
// Tenants are configured statically (Config.Tenants, typically from the
// -tenants file parsed by ParseTenants); requests resolve to a tenant
// through their Authorization bearer key, and everything else — quota
// admission at the submission edge, the claim loop's weighted-fair
// ordering (schedule.go), the drain-rate estimator behind every honest
// Retry-After — keys off the resolved name. See DESIGN.md §15.

// AnonymousTenant is the name every unauthenticated submission is
// attributed to. It always exists; listing it in Config.Tenants
// overrides its default weight/quotas (it can never carry a key).
const AnonymousTenant = "anonymous"

// Tenant-related errors the API surfaces to clients.
var (
	// ErrUnauthorized reports a bearer key that matches no configured
	// tenant (only returned when tenants are configured at all).
	ErrUnauthorized = errors.New("service: unknown API key")
	// ErrQuotaExceeded is the sentinel under every QuotaError, so
	// callers can errors.Is across the specific kinds.
	ErrQuotaExceeded = errors.New("service: tenant quota exceeded")
)

// QuotaError reports a submission rejected by a per-tenant quota. It
// unwraps to ErrQuotaExceeded; RetryAfter is derived from the tenant's
// measured drain rate at rejection time (see drainMeter), so the
// advertised wait is honest rather than a constant.
type QuotaError struct {
	Tenant     string
	Kind       string // "queued_jobs" or "active_sweeps"
	Limit      int
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over %s quota (limit %d)", e.Tenant, e.Kind, e.Limit)
}

func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// TenantConfig declares one tenant: its bearer key, its weight and
// priority class for the claim loop's deficit-round-robin ordering, and
// its admission quotas. The zero value of every limit field means
// "unlimited"/"service default", so a bare {"name":..., "key":...}
// entry admits exactly like the pre-tenant service did.
type TenantConfig struct {
	// Name identifies the tenant on records, metrics, and statuses.
	Name string `json:"name"`
	// Key is the bearer token presented as "Authorization: Bearer
	// <key>". Empty is allowed only for the anonymous entry.
	Key string `json:"key,omitempty"`
	// Weight is the tenant's deficit-round-robin share within its
	// priority class (default 1): a weight-3 tenant drains three queued
	// jobs per round for every one a weight-1 tenant drains.
	Weight int `json:"weight,omitempty"`
	// Priority is the tenant's scheduling class (default 0). Higher
	// classes' *queued* work is claimed strictly before lower classes';
	// running work is never preempted.
	Priority int `json:"priority,omitempty"`
	// MaxQueuedJobs caps the tenant's jobs admitted but not yet
	// terminal — queued and running, direct and sweep members alike
	// (0 = unlimited).
	MaxQueuedJobs int `json:"max_queued_jobs,omitempty"`
	// MaxActiveSweeps caps the tenant's concurrently non-terminal
	// sweeps (0 = unlimited).
	MaxActiveSweeps int `json:"max_active_sweeps,omitempty"`
	// Rate replaces the service-wide Config.RateLimit for this tenant's
	// submission token bucket (0 = inherit the service rate); RateBurst
	// likewise (0 = max(1, ceil(effective rate))).
	Rate      float64 `json:"rate,omitempty"`
	RateBurst int     `json:"rate_burst,omitempty"`
}

// ParseTenants reads a -tenants file: {"tenants":[{...}, ...]} of
// TenantConfig entries. Names and keys must be unique; the anonymous
// entry may appear (to set its weight/quotas) but cannot carry a key.
func ParseTenants(r io.Reader) ([]TenantConfig, error) {
	var file struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("tenants file: %v", err)
	}
	names := make(map[string]bool)
	keys := make(map[string]bool)
	for i, tc := range file.Tenants {
		if strings.TrimSpace(tc.Name) == "" {
			return nil, fmt.Errorf("tenants file: entry %d: name is required", i)
		}
		if names[tc.Name] {
			return nil, fmt.Errorf("tenants file: duplicate tenant %q", tc.Name)
		}
		names[tc.Name] = true
		if tc.Name == AnonymousTenant {
			if tc.Key != "" {
				return nil, fmt.Errorf("tenants file: the %q tenant cannot carry a key (it is what no key resolves to)", AnonymousTenant)
			}
		} else if tc.Key == "" {
			return nil, fmt.Errorf("tenants file: tenant %q: key is required", tc.Name)
		}
		if tc.Key != "" {
			if keys[tc.Key] {
				return nil, fmt.Errorf("tenants file: tenant %q: key already used by another tenant", tc.Name)
			}
			keys[tc.Key] = true
		}
		if tc.Weight < 0 || tc.MaxQueuedJobs < 0 || tc.MaxActiveSweeps < 0 || tc.Rate < 0 || tc.RateBurst < 0 {
			return nil, fmt.Errorf("tenants file: tenant %q: negative limits make no sense", tc.Name)
		}
	}
	return file.Tenants, nil
}

// buildTenants indexes cfg.Tenants into the Service's immutable lookup
// maps, synthesizing the anonymous default when absent. Called once
// from New; read without locking afterwards.
func (s *Service) buildTenants() {
	s.tenantByName = make(map[string]*TenantConfig, len(s.cfg.Tenants)+1)
	s.tenantByKey = make(map[string]*TenantConfig, len(s.cfg.Tenants))
	for i := range s.cfg.Tenants {
		tc := &s.cfg.Tenants[i]
		s.tenantByName[tc.Name] = tc
		if tc.Key != "" {
			s.tenantByKey[tc.Key] = tc
		}
	}
	if s.tenantByName[AnonymousTenant] == nil {
		s.anonDefault = TenantConfig{Name: AnonymousTenant}
		s.tenantByName[AnonymousTenant] = &s.anonDefault
	}
}

// tenantConfig returns the configuration for name, falling back to an
// unconfigured zero-quota-free profile for names that arrive on
// recovered or peer records but are no longer in this daemon's file
// (records outlive config edits; their work must still drain).
func (s *Service) tenantConfig(name string) TenantConfig {
	if tc := s.tenantByName[name]; tc != nil {
		return *tc
	}
	return TenantConfig{Name: name}
}

// ResolveTenant maps an Authorization header value to a tenant name.
// No header (or no configured tenants at all — legacy single-tenant
// mode ignores stray credentials) resolves to the anonymous tenant; a
// bearer key matching no tenant is ErrUnauthorized.
func (s *Service) ResolveTenant(authorization string) (string, error) {
	if authorization == "" || len(s.tenantByKey) == 0 {
		return AnonymousTenant, nil
	}
	const scheme = "Bearer "
	if !strings.HasPrefix(authorization, scheme) {
		return "", fmt.Errorf("%w: expected a Bearer token", ErrUnauthorized)
	}
	key := strings.TrimSpace(authorization[len(scheme):])
	if tc := s.tenantByKey[key]; tc != nil {
		return tc.Name, nil
	}
	return "", ErrUnauthorized
}

// drainMeter measures a completion rate from a ring of recent terminal
// timestamps. The rate is count over the window from the oldest
// retained stamp to now, so it decays honestly while nothing drains.
type drainMeter struct {
	times [32]time.Time
	head  int // next write position
	n     int
}

// note records one completion.
func (d *drainMeter) note(t time.Time) {
	d.times[d.head] = t
	d.head = (d.head + 1) % len(d.times)
	if d.n < len(d.times) {
		d.n++
	}
}

// rate returns completions per second, or ok=false while fewer than two
// completions have been observed (no measurable rate yet).
func (d *drainMeter) rate(now time.Time) (float64, bool) {
	if d.n < 2 {
		return 0, false
	}
	oldest := d.times[(d.head-d.n+len(d.times))%len(d.times)]
	window := now.Sub(oldest).Seconds()
	if window <= 0 {
		window = time.Millisecond.Seconds()
	}
	return float64(d.n) / window, true
}

// retryAfter converts the measured rate into a whole-second Retry-After
// for one queue slot to free: ceil(1/rate), clamped to [1s, 10m]. With
// no measurable rate yet the fallback is the smallest honest answer,
// 1s (the caller knows nothing that justifies a longer hold-off).
func (d *drainMeter) retryAfter(now time.Time) time.Duration {
	r, ok := d.rate(now)
	if !ok || r <= 0 {
		return time.Second
	}
	secs := math.Ceil(1 / r)
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return time.Duration(secs) * time.Second
}

// tenantState is one tenant's runtime accounting, guarded by s.mu like
// the job tables it is derived from. DRR deficits are NOT here — they
// belong to the claim loop alone (Service.drr).
type tenantState struct {
	drain drainMeter
}

// tenantName normalizes a tenant name: empty means anonymous (records
// and callers that predate tenants carry no name).
func tenantName(name string) string {
	if name == "" {
		return AnonymousTenant
	}
	return name
}

// tenantStateLocked returns (lazily creating) the runtime state for a
// tenant. Callers hold s.mu.
func (s *Service) tenantStateLocked(name string) *tenantState {
	name = tenantName(name)
	ts := s.tstate[name]
	if ts == nil {
		ts = &tenantState{}
		s.tstate[name] = ts
	}
	return ts
}

// noteDrainLocked records one job of tenant name reaching a terminal
// state, feeding both the tenant's and the global drain meter. Instant
// completions (cache hits) are not drains — they never held a queue
// slot — so callers skip them. Callers hold s.mu.
func (s *Service) noteDrainLocked(name string, now time.Time) {
	s.tenantStateLocked(name).drain.note(now)
	s.globalDrain.note(now)
}

// tenantRetryAfterLocked is the honest Retry-After for "one of this
// tenant's queue slots frees up". Callers hold s.mu.
func (s *Service) tenantRetryAfterLocked(name string, now time.Time) time.Duration {
	return s.tenantStateLocked(name).drain.retryAfter(now)
}

// queueRetryAfter is the honest Retry-After for "one global queue slot
// frees up", from the service-wide drain meter.
func (s *Service) queueRetryAfter(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.globalDrain.retryAfter(now)
}

// admitJobLocked enforces the tenant's queued-jobs quota for one direct
// submission. Sweep members are exempt — their sweep was admitted as a
// unit — and cache hits never reach here (they hold no slot). Counting
// iterates the retained job table (bounded by MaxJobs), under the same
// mutex hold that registers the job, so two racing submissions cannot
// both squeeze under the limit. Callers hold s.mu.
func (s *Service) admitJobLocked(tenant string, now time.Time) error {
	tc := s.tenantConfig(tenant)
	if tc.MaxQueuedJobs <= 0 {
		return nil
	}
	active := 0
	for _, j := range s.jobs {
		if j.tenant == tenant && !j.state.Terminal() {
			active++
		}
	}
	if active < tc.MaxQueuedJobs {
		return nil
	}
	return &QuotaError{
		Tenant: tenant, Kind: "queued_jobs", Limit: tc.MaxQueuedJobs,
		RetryAfter: s.tenantRetryAfterLocked(tenant, now),
	}
}

// admitSweepLocked enforces the tenant's active-sweeps quota. Callers
// hold s.mu.
func (s *Service) admitSweepLocked(tenant string, now time.Time) error {
	tc := s.tenantConfig(tenant)
	if tc.MaxActiveSweeps <= 0 {
		return nil
	}
	active := 0
	for _, sw := range s.sweeps {
		if sw.tenant == tenant && !sw.state.Terminal() {
			active++
		}
	}
	if active < tc.MaxActiveSweeps {
		return nil
	}
	return &QuotaError{
		Tenant: tenant, Kind: "active_sweeps", Limit: tc.MaxActiveSweeps,
		RetryAfter: s.tenantRetryAfterLocked(tenant, now),
	}
}
