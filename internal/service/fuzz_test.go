package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"seqbist/internal/iscas"
	"seqbist/internal/strategy"
)

// FuzzValidateSpec drives the submission edge's shape checks with
// arbitrary bytes decoded as a JobSpec — the body every POST /v1/jobs
// carries. ValidateSpec must never panic; a spec it accepts must have a
// content key that ignores the deprecated lanes field (setting it to 0
// leaves the key unchanged, so a stored or resubmitted "lanes" never
// fragments the cache); and the lanes values it rejects are exactly the
// ones it has always rejected (negative, or not a multiple of 64).
func FuzzValidateSpec(f *testing.F) {
	for _, lanes := range []int{0, 64, 128, 256, 100, -64} {
		spec, _ := json.Marshal(JobSpec{Circuit: "s27", Config: GenConfig{N: 2, Lanes: lanes}})
		f.Add(spec)
	}
	for _, name := range append(strategy.Names(), "nope") {
		spec, _ := json.Marshal(JobSpec{Circuit: "s298", Config: GenConfig{Strategy: name, Seed: 7}})
		f.Add(spec)
	}
	f.Add([]byte(`{"bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","t0":"0 1 1","config":{"lanes":192,"parallelism":3}}`))
	f.Add([]byte(`{"circuit":"s27","bench":"INPUT(a)","config":{}}`))
	f.Add([]byte(`{"circuit":"s27","config":{"n":-1,"atpg_max_len":-5}}`))
	f.Add([]byte(`{"circuit":"s27","config":{"lanes":"wide"}}`))
	f.Add([]byte(`{"circuit":"s27","config":{"lanes":64`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	c := iscas.S27()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		err := ValidateSpec(spec)
		lanes := spec.Config.Lanes
		if badLanes := lanes < 0 || lanes%64 != 0; badLanes && err == nil {
			t.Fatalf("lanes %d accepted", lanes)
		}
		if err != nil {
			return
		}
		cfg := spec.Config.withDefaults()
		key := contentKey(c, spec.T0, cfg)
		cfg.Lanes = 0
		if got := contentKey(c, spec.T0, cfg); got != key {
			t.Fatalf("lanes %d changes the content key: %s vs %s", lanes, key, got)
		}
	})
}

// FuzzParseTenants drives the -tenants file parser with arbitrary bytes.
// ParseTenants must never panic, and any table it accepts must be one
// the service can index unambiguously: unique names, unique keys, no
// negative limit, and no key on the anonymous tenant.
func FuzzParseTenants(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"name":"flood","key":"akey","weight":1},{"name":"interactive","key":"bkey","weight":8,"priority":1}]}`))
	f.Add([]byte(`{"tenants":[{"name":"anonymous","max_queued_jobs":2},{"name":"paid","key":"k","rate":2.5,"rate_burst":3,"max_active_sweeps":1}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"k"},{"name":"b","key":"k"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"k"},{"name":"a","key":"j"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"anonymous","key":"k"}]}`))
	f.Add([]byte(`{"tenants":[{"name":" ","key":"k"}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"k","weight":-1}]}`))
	f.Add([]byte(`{"tenants":[{"name":"a","key":"k","bogus":1}]}`))
	f.Add([]byte(`{"tenants":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tenants, err := ParseTenants(bytes.NewReader(data))
		if err != nil {
			return
		}
		names := make(map[string]bool)
		keys := make(map[string]bool)
		for _, tc := range tenants {
			if names[tc.Name] {
				t.Fatalf("duplicate tenant %q accepted", tc.Name)
			}
			names[tc.Name] = true
			if tc.Key != "" {
				if keys[tc.Key] {
					t.Fatalf("duplicate key %q accepted", tc.Key)
				}
				keys[tc.Key] = true
			}
			if tc.Name == AnonymousTenant && tc.Key != "" {
				t.Fatalf("key accepted on the %q tenant", AnonymousTenant)
			}
			if tc.Weight < 0 || tc.MaxQueuedJobs < 0 || tc.MaxActiveSweeps < 0 || tc.Rate < 0 || tc.RateBurst < 0 {
				t.Fatalf("negative limit accepted: %+v", tc)
			}
		}
	})
}

// FuzzSweepSpec drives POST /v1/sweeps with arbitrary bodies through the
// real handler. The daemon must never panic or answer 500, and every 4xx
// must carry the typed error envelope. Accepted sweeps are canceled at
// once, so the fuzzer measures admission, not synthesis.
func FuzzSweepSpec(f *testing.F) {
	for _, spec := range []SweepSpec{
		{Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s298"}}, Config: tinyCfg()},
		{Circuits: []CircuitRef{{Circuit: "s27", Override: &MemberOverride{Strategy: "race", Seed: 3}}}, Config: tinyCfg()},
		{Circuits: []CircuitRef{{Bench: iscas.S27Source, T0: "0101 1010"}}, Config: GenConfig{N: 1}},
		{Circuits: []CircuitRef{{Circuit: "s27"}, {Circuit: "s27"}, {Circuit: "s27"}, {Circuit: "s27"}, {Circuit: "s27"}}},
		{Circuits: []CircuitRef{{Circuit: "s27", Bench: "INPUT(a)"}}},
		{Circuits: []CircuitRef{{Circuit: "nope"}}},
		{},
	} {
		body, _ := json.Marshal(spec)
		f.Add(body)
	}
	f.Add([]byte(`{"circuits":[{"circuit":"s27","override":{"strategy":"nope"}}],"config":{"n":-3}}`))
	f.Add([]byte(`{"circuits":[{"circuit":"s27"}],"config":{"lanes":100}}`))
	f.Add([]byte(`{"circuits":[`))
	f.Add([]byte(`null`))

	svc := New(Config{Workers: 1, MaxSweepMembers: 4})
	defer svc.Close()
	h := NewHandler(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusAccepted:
			var st SweepStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("202 without a sweep status: %q (%v)", rec.Body.String(), err)
			}
			if _, err := svc.CancelSweep(st.ID); err != nil {
				t.Fatal(err)
			}
		case code >= 400 && code < 500:
			var env errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("%d without the typed error envelope: %q (%v)", code, rec.Body.String(), err)
			}
		default:
			t.Fatalf("POST /v1/sweeps answered %d: %s", code, rec.Body.String())
		}
	})
}
