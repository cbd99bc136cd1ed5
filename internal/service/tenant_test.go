package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestParseTenants drives the -tenants file parser through its
// acceptance and every rejection rule.
func TestParseTenants(t *testing.T) {
	good := `{"tenants":[
		{"name":"alpha","key":"ka","weight":3,"priority":1,"max_queued_jobs":4,"max_active_sweeps":2,"rate":5,"rate_burst":10},
		{"name":"beta","key":"kb"},
		{"name":"anonymous","weight":1,"max_queued_jobs":1}
	]}`
	tenants, err := ParseTenants(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	if len(tenants) != 3 || tenants[0].Name != "alpha" || tenants[0].Weight != 3 || tenants[0].Rate != 5 {
		t.Fatalf("parsed %+v", tenants)
	}

	bad := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"tenants":[{"name":"a","key":"k","wieght":2}]}`, "unknown field"},
		{"missing name", `{"tenants":[{"key":"k"}]}`, "name is required"},
		{"duplicate name", `{"tenants":[{"name":"a","key":"k1"},{"name":"a","key":"k2"}]}`, "duplicate"},
		{"duplicate key", `{"tenants":[{"name":"a","key":"k"},{"name":"b","key":"k"}]}`, "already used"},
		{"missing key", `{"tenants":[{"name":"a"}]}`, "key is required"},
		{"anonymous with key", `{"tenants":[{"name":"anonymous","key":"k"}]}`, "cannot carry a key"},
		{"negative weight", `{"tenants":[{"name":"a","key":"k","weight":-1}]}`, "negative"},
		{"negative rate", `{"tenants":[{"name":"a","key":"k","rate":-0.5}]}`, "negative"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseTenants(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestResolveTenant covers the authentication decision table, including
// the legacy single-tenant mode that must keep ignoring credentials.
func TestResolveTenant(t *testing.T) {
	legacy := New(Config{Workers: 1})
	defer legacy.Close()
	if name, err := legacy.ResolveTenant("Bearer whatever"); err != nil || name != AnonymousTenant {
		t.Fatalf("legacy mode must ignore stray credentials: %q, %v", name, err)
	}

	svc := New(Config{Workers: 1, Tenants: []TenantConfig{
		{Name: "alpha", Key: "ka"},
	}})
	defer svc.Close()
	cases := []struct {
		header, want string
		wantErr      bool
	}{
		{"", AnonymousTenant, false},
		{"Bearer ka", "alpha", false},
		{"Bearer  ka ", "alpha", false}, // surrounding whitespace tolerated
		{"Bearer nope", "", true},
		{"Basic ka", "", true}, // wrong scheme with keys configured
	}
	for _, tc := range cases {
		name, err := svc.ResolveTenant(tc.header)
		if tc.wantErr {
			if !errors.Is(err, ErrUnauthorized) {
				t.Errorf("ResolveTenant(%q) err = %v, want ErrUnauthorized", tc.header, err)
			}
			continue
		}
		if err != nil || name != tc.want {
			t.Errorf("ResolveTenant(%q) = %q, %v; want %q", tc.header, name, err, tc.want)
		}
	}
}

// TestDrainMeterRetryAfter pins the honesty contract: the advertised
// Retry-After is derived from measured completion spacing, not a
// constant. Two completions 2s apart observed 4s into the window mean
// 0.5 drains/sec, so one slot frees in ceil(1/0.5) = 2s.
func TestDrainMeterRetryAfter(t *testing.T) {
	base := time.Unix(1700000000, 0)
	var d drainMeter

	// No data yet: the smallest honest answer.
	if got := d.retryAfter(base); got != time.Second {
		t.Fatalf("empty meter retryAfter = %v, want 1s", got)
	}
	d.note(base)
	if got := d.retryAfter(base.Add(time.Second)); got != time.Second {
		t.Fatalf("single-sample meter retryAfter = %v, want 1s (no measurable rate)", got)
	}

	d.note(base.Add(2 * time.Second))
	if got := d.retryAfter(base.Add(4 * time.Second)); got != 2*time.Second {
		t.Fatalf("retryAfter = %v, want 2s from a measured 0.5/s drain", got)
	}

	// The estimate decays honestly while nothing drains: the same meter
	// asked much later advertises a longer wait, clamped at 10m.
	if got := d.retryAfter(base.Add(3 * time.Hour)); got != 600*time.Second {
		t.Fatalf("stalled-drain retryAfter = %v, want the 600s clamp", got)
	}

	// The ring keeps the most recent 32 stamps: a fast recent burst
	// dominates ancient history.
	for i := 0; i < 40; i++ {
		d.note(base.Add(time.Duration(3600+i) * time.Second))
	}
	if got := d.retryAfter(base.Add(3640 * time.Second)); got != time.Second {
		t.Fatalf("post-burst retryAfter = %v, want 1s (32 drains in ~40s)", got)
	}
}

// TestTenantHTTPMatrix drives authentication, quota admission, the
// typed error envelope, and honest Retry-After through the real HTTP
// surface.
func TestTenantHTTPMatrix(t *testing.T) {
	svc := New(Config{Workers: 1, Tenants: []TenantConfig{
		{Name: "alpha", Key: "ka", MaxQueuedJobs: 1, MaxActiveSweeps: 1},
		{Name: "beta", Key: "kb"},
	}})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	client := ts.Client()

	post := func(path, auth string, body string) (*http.Response, errorEnvelope) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		decodeJSONBody(t, resp, &env)
		return resp, env
	}

	jobBody := `{"circuit":"s27","config":{"n":1,"atpg_max_len":40,"max_omission_trials":5}}`

	// Unknown key: 401, typed envelope.
	resp, env := post("/v1/jobs", "Bearer wrong", jobBody)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: %d, want 401", resp.StatusCode)
	}
	if env.Error.Code != CodeUnauthorized || env.Error.Message == "" {
		t.Fatalf("401 envelope %+v", env)
	}

	// Good key: accepted, and the status carries the tenant.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(jobBody))
	req.Header.Set("Authorization", "Bearer kb")
	r2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	decodeJSONBody(t, r2, &st)
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted || st.Tenant != "beta" {
		t.Fatalf("authenticated submit: %d, tenant %q; want 202/beta", r2.StatusCode, st.Tenant)
	}

	// Fill alpha's queued-jobs quota with a synthetic non-terminal job
	// and seed its drain meter with completions 2s apart, measured over
	// a ~3s window: the advertised Retry-After must be the measured 2s,
	// not a constant.
	now := time.Now()
	svc.mu.Lock()
	svc.jobs["job-fake01"] = &job{id: "job-fake01", tenant: "alpha", state: StateRunning, member: -1}
	alpha := svc.tenantStateLocked("alpha")
	alpha.drain.note(now.Add(-3 * time.Second))
	alpha.drain.note(now.Add(-1 * time.Second))
	svc.mu.Unlock()

	// A distinct spec: cache hits are quota-exempt by design (they hold
	// no queue slot), so the probe must miss the cache to be rejected.
	alphaBody := `{"circuit":"s27","config":{"n":1,"seed":9,"atpg_max_len":40,"max_omission_trials":5}}`
	resp, env = post("/v1/jobs", "Bearer ka", alphaBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: %d, want 429", resp.StatusCode)
	}
	if env.Error.Code != CodeQuotaExceeded || !strings.Contains(env.Error.Message, "queued_jobs") {
		t.Fatalf("quota envelope %+v", env)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry != 2 {
		t.Fatalf("Retry-After = %q, want the measured 2s", resp.Header.Get("Retry-After"))
	}
	if env.Error.RetryAfterS != retry {
		t.Fatalf("envelope retry_after_s %d diverges from header %d", env.Error.RetryAfterS, retry)
	}

	// Quotas are per tenant: beta is unaffected by alpha's ceiling
	// (202 queued or 200 cache hit, depending on the first job's pace).
	resp, env = post("/v1/jobs", "Bearer kb", jobBody)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("beta caught by alpha's quota: %d (%+v)", resp.StatusCode, env)
	}

	// Active-sweeps quota, same contract on the sweep route.
	svc.mu.Lock()
	svc.sweeps["sweep-fake"] = &sweep{id: "sweep-fake", tenant: "alpha", state: StateRunning, wake: make(chan struct{})}
	svc.mu.Unlock()
	sweepBody := `{"circuits":[{"circuit":"s27"}],"config":{"n":1,"atpg_max_len":40,"max_omission_trials":5}}`
	resp, env = post("/v1/sweeps", "Bearer ka", sweepBody)
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != CodeQuotaExceeded {
		t.Fatalf("sweep quota: %d %+v, want 429 quota_exceeded", resp.StatusCode, env)
	}
	if !strings.Contains(env.Error.Message, "active_sweeps") {
		t.Fatalf("sweep quota message %q", env.Error.Message)
	}

	// Metrics attribute the rejections to the right tenant.
	snap := svc.Metrics()
	if c := snap.Tenant.PerTenant["alpha"]; c.RejectedQuota < 2 {
		t.Fatalf("alpha rejected_quota = %d, want >= 2", c.RejectedQuota)
	}
	if c := snap.Tenant.PerTenant["beta"]; c.Submitted < 2 {
		t.Fatalf("beta submitted = %d, want >= 2", c.Submitted)
	}
}

// TestTenantRateBudget checks a tenant's configured rate replaces the
// service-wide limit for its bucket, shared across its client IPs, while
// anonymous submitters stay on the per-IP service budget.
func TestTenantRateBudget(t *testing.T) {
	svc := New(Config{Workers: 1, RateLimit: 100, Tenants: []TenantConfig{
		{Name: "alpha", Key: "ka", Rate: 0.5, RateBurst: 1},
	}})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	post := func(auth string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader("{"))
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Alpha's burst of 1 spends on the first call (400: bad body still
	// spends, limiting precedes parsing), and the second answers 429
	// even though the service-wide budget has plenty left.
	if got := post("Bearer ka").StatusCode; got != http.StatusBadRequest {
		t.Fatalf("first alpha call: %d, want 400", got)
	}
	resp := post("Bearer ka")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alpha call: %d, want 429 on the tenant bucket", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("tenant 429 must carry Retry-After")
	}
	// Anonymous rides the roomy service-wide budget, unaffected.
	for i := 0; i < 5; i++ {
		if got := post("").StatusCode; got != http.StatusBadRequest {
			t.Fatalf("anonymous call %d: %d, want 400", i, got)
		}
	}
	if n := svc.Metrics().Tenant.PerTenant["alpha"].RejectedRate; n < 1 {
		t.Fatalf("alpha rejected_rate = %d, want >= 1", n)
	}
}

// TestTenantPersistRoundTrip pins tenant attribution through the
// durable layer: submit as a named tenant, restart on the same
// directory, compact, restart again — every job and sweep status must
// still name the tenant (adoption attribution is pinned separately in
// TestClusterSweepAdoption).
func TestTenantPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tenants := []TenantConfig{{Name: "alpha", Key: "ka", Weight: 3}}
	svc := New(Config{Workers: 2, Store: diskStore(t, dir), Tenants: tenants})

	st, err := svc.SubmitAs("alpha", fastSpec("s27", 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alpha" {
		t.Fatalf("fresh status tenant %q", st.Tenant)
	}
	waitTerminal(t, svc, st.ID, 60*time.Second)
	sw, err := svc.SubmitSweepAs("alpha", SweepSpec{
		Circuits: []CircuitRef{{Circuit: "s27"}},
		Config:   tinyCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Tenant != "alpha" {
		t.Fatalf("fresh sweep tenant %q", sw.Tenant)
	}
	waitSweepTerminal(t, svc, sw.ID)
	svc.Close()

	// Restart 1: replay. Restart 2: compaction first, so statuses are
	// rebuilt from the rewritten minimal log.
	for round, compact := range []bool{false, true} {
		st2 := diskStore(t, dir)
		if compact {
			if err := st2.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		svc2 := New(Config{Workers: 2, Store: st2, Tenants: tenants})
		for _, j := range svc2.Jobs() {
			if j.Tenant != "alpha" {
				t.Fatalf("round %d: job %s tenant %q, want alpha", round, j.ID, j.Tenant)
			}
		}
		sws := svc2.Sweeps()
		if len(sws) != 1 || sws[0].Tenant != "alpha" {
			t.Fatalf("round %d: sweeps %+v, want one owned by alpha", round, sws)
		}
		svc2.Close()
	}
}

// decodeJSONBody decodes resp's body into out.
func decodeJSONBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s body: %v", resp.Status, err)
	}
}
