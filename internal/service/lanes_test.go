package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seqbist/internal/iscas"
	"seqbist/internal/store"
)

// TestDeprecatedLanesWireCompat pins the wire contract of the ignored
// config fields, lanes and parallelism: specs that carry them
// content-address, cache, and produce results exactly like specs that do
// not; a stored record that carries them recovers and runs; and the
// values each field always rejected still get a 400 invalid_spec.
func TestDeprecatedLanesWireCompat(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	const config = `"n":2,"seed":5,"atpg_max_len":300,"max_omission_trials":40`
	spec := func(extra string) string {
		return `{"circuit":"s27","config":{` + config + extra + `}}`
	}
	post := func(t *testing.T, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	submit := func(t *testing.T, body string) (int, Status) {
		t.Helper()
		resp, data := post(t, body)
		var st Status
		if resp.StatusCode < 300 {
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, st
	}
	resultBody := func(t *testing.T, id string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: HTTP %d, %v", id, resp.StatusCode, err)
		}
		return body
	}
	keyOf := func(svc *Service, id string) string {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.jobs[id].key
	}

	code, first := submit(t, spec(""))
	if code != http.StatusAccepted {
		t.Fatalf("plain spec: HTTP %d", code)
	}
	if st := waitTerminal(t, svc, first.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("plain spec: job %s", st.State)
	}
	key := keyOf(svc, first.ID)
	want := resultBody(t, first.ID)
	var wantRes Result
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		field            string
		hit, bad, stored int
	}{
		{field: "lanes", hit: 128, bad: 100, stored: 256},
		{field: "parallelism", hit: 3, bad: -1, stored: 4},
	} {
		t.Run(tc.field, func(t *testing.T) {
			with := func(v int) string { return spec(fmt.Sprintf(`,%q:%d`, tc.field, v)) }

			code, second := submit(t, with(tc.hit))
			if code != http.StatusOK || !second.CacheHit {
				t.Fatalf("%s %d: HTTP %d, cache_hit %v; want a cache hit", tc.field, tc.hit, code, second.CacheHit)
			}
			if got := keyOf(svc, second.ID); got != key {
				t.Fatalf("%s %d content key %s, plain key %s", tc.field, tc.hit, got, key)
			}
			if got := resultBody(t, second.ID); !bytes.Equal(got, want) {
				t.Fatalf("%s %d result body differs:\n%s\nvs\n%s", tc.field, tc.hit, got, want)
			}

			resp, data := post(t, with(tc.bad))
			var env errorEnvelope
			decErr := json.Unmarshal(data, &env)
			if resp.StatusCode != http.StatusBadRequest || decErr != nil || env.Error.Code != CodeInvalidSpec {
				t.Fatalf("%s %d: HTTP %d, envelope %+v (%v); want 400 %s", tc.field, tc.bad, resp.StatusCode, env, decErr, CodeInvalidSpec)
			}

			// Restart over a store holding a queued record written with
			// the field set.
			var stored JobSpec
			if err := json.Unmarshal([]byte(with(tc.stored)), &stored); err != nil {
				t.Fatal(err)
			}
			mem := store.NewMemory()
			if err := mem.PutJob(store.JobRecord{
				ID: jobID(1), Seq: 1, Circuit: "s27", Member: -1,
				Key:       contentKey(iscas.MustLoad("s27"), "", stored.Config.withDefaults()),
				Spec:      json.RawMessage(with(tc.stored)),
				State:     string(StateQueued),
				Submitted: time.Now(),
			}); err != nil {
				t.Fatal(err)
			}
			restarted := New(Config{Workers: 1, Store: mem})
			defer restarted.Close()
			if st := waitTerminal(t, restarted, jobID(1), 60*time.Second); st.State != StateDone {
				t.Fatalf("recovered %s %d job: %s (%s)", tc.field, tc.stored, st.State, st.Error)
			}
			if got := keyOf(restarted, jobID(1)); got != key {
				t.Fatalf("recovered %s %d content key %s, plain key %s", tc.field, tc.stored, got, key)
			}
			got, err := restarted.Result(jobID(1))
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEquivalent(got, &wantRes) {
				t.Fatalf("recovered %s %d result differs from the plain result", tc.field, tc.stored)
			}
		})
	}
}
