package service

import (
	"bytes"
	"encoding/json"
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
// config.lanes field: specs that carry it content-address, cache, and
// produce results exactly like specs that do not; a stored record that
// carries it recovers and runs; and the values the field always rejected
// still get a 400 invalid_spec.
func TestDeprecatedLanesWireCompat(t *testing.T) {
	svc := New(Config{Workers: 1, SimParallelism: 1})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	const config = `"n":2,"seed":5,"atpg_max_len":300,"max_omission_trials":40`
	spec := func(lanes string) string {
		return `{"circuit":"s27","config":{` + config + lanes + `}}`
	}
	post := func(body string) (int, Status) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Status
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, st
	}
	resultBody := func(id string) []byte {
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

	code, first := post(spec(""))
	if code != http.StatusAccepted {
		t.Fatalf("lanes 0: HTTP %d", code)
	}
	if st := waitTerminal(t, svc, first.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("lanes 0: job %s", st.State)
	}
	code, second := post(spec(`,"lanes":128`))
	if code != http.StatusOK || !second.CacheHit {
		t.Fatalf("lanes 128: HTTP %d, cache_hit %v; want a cache hit", code, second.CacheHit)
	}
	key := keyOf(svc, first.ID)
	if got := keyOf(svc, second.ID); got != key {
		t.Fatalf("lanes 128 content key %s, lanes 0 key %s", got, key)
	}
	want := resultBody(first.ID)
	if got := resultBody(second.ID); !bytes.Equal(got, want) {
		t.Fatalf("lanes 128 result body differs:\n%s\nvs\n%s", got, want)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec(`,"lanes":100`)))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	decErr := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decErr != nil || env.Error.Code != CodeInvalidSpec {
		t.Fatalf("lanes 100: HTTP %d, envelope %+v (%v); want 400 %s", resp.StatusCode, env, decErr, CodeInvalidSpec)
	}

	// Restart over a store holding a queued record written with lanes 256.
	var stored JobSpec
	if err := json.Unmarshal([]byte(spec(`,"lanes":256`)), &stored); err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemory()
	if err := mem.PutJob(store.JobRecord{
		ID: jobID(1), Seq: 1, Circuit: "s27", Member: -1,
		Key:       contentKey(iscas.MustLoad("s27"), "", stored.Config.withDefaults(1)),
		Spec:      json.RawMessage(spec(`,"lanes":256`)),
		State:     string(StateQueued),
		Submitted: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	restarted := New(Config{Workers: 1, SimParallelism: 1, Store: mem})
	defer restarted.Close()
	if st := waitTerminal(t, restarted, jobID(1), 60*time.Second); st.State != StateDone {
		t.Fatalf("recovered lanes 256 job: %s (%s)", st.State, st.Error)
	}
	if got := keyOf(restarted, jobID(1)); got != key {
		t.Fatalf("recovered lanes 256 content key %s, lanes 0 key %s", got, key)
	}
	got, err := restarted.Result(jobID(1))
	if err != nil {
		t.Fatal(err)
	}
	var wantRes Result
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatal(err)
	}
	if !resultsEquivalent(got, &wantRes) {
		t.Fatal("recovered lanes 256 result differs from the lanes 0 result")
	}
}
