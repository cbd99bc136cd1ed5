package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// httpJSON issues a request against the test server and decodes the JSON
// response into out (when non-nil), returning the status code.
func httpJSON(t *testing.T, client *http.Client, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd drives the full REST lifecycle against a live
// httptest server: submit -> poll -> result, instant cache hit on
// resubmission, cancellation of a queued job, and the error surface
// (404 unknown job, 409 result-before-done, 400 bad spec).
func TestHTTPEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 16})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	client := ts.Client()

	// Health before any work.
	var health struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	if code := httpJSON(t, client, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || health.Stats.Workers != 2 {
		t.Fatalf("healthz: %+v", health)
	}

	// Submit.
	spec := fastSpec("s298", 1)
	var st Status
	if code := httpJSON(t, client, "POST", ts.URL+"/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("submit: unexpected status %+v", st)
	}

	// Racing the worker for a 409 is flaky; the dedicated check comes
	// after cancellation below. Poll to completion.
	deadline := time.Now().Add(60 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if code := httpJSON(t, client, "GET", ts.URL+"/jobs/"+st.ID, nil, &st); code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
	}
	if st.State != StateDone {
		t.Fatalf("job %s: state %s, error %q", st.ID, st.State, st.Error)
	}

	// Result.
	var res Result
	if code := httpJSON(t, client, "GET", ts.URL+"/jobs/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if res.Circuit != "s298" || res.NumSequences == 0 || len(res.Sequences) != res.NumSequences {
		t.Fatalf("result: %+v", res)
	}
	for _, s := range res.Sequences {
		if s.Len == 0 || len(s.Vectors) != s.Len || s.GoldenMISR == "" {
			t.Fatalf("malformed stored sequence: %+v", s)
		}
	}

	// Resubmit: served from the cache, 200 and instantly done.
	var st2 Status
	if code := httpJSON(t, client, "POST", ts.URL+"/jobs", spec, &st2); code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200", code)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("resubmit: cache_hit=%v state=%s", st2.CacheHit, st2.State)
	}
	var res2 Result
	httpJSON(t, client, "GET", ts.URL+"/jobs/"+st2.ID+"/result", nil, &res2)
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("cached result differs from the original")
	}

	// Job listing includes both submissions in order.
	var list []Status
	if code := httpJSON(t, client, "GET", ts.URL+"/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != 2 || list[0].ID != st.ID || list[1].ID != st2.ID {
		t.Fatalf("list: %+v", list)
	}

	// Cancellation via DELETE: saturate both workers with slow jobs, then
	// cancel a queued one before it starts.
	for i := 0; i < 2; i++ {
		httpJSON(t, client, "POST", ts.URL+"/jobs", JobSpec{
			Circuit: "s526",
			Config:  GenConfig{N: 8, Seed: uint64(100 + i), ATPGMaxLen: 1500},
		}, nil)
	}
	var queued Status
	httpJSON(t, client, "POST", ts.URL+"/jobs", fastSpec("s27", 77), &queued)
	var canceled Status
	if code := httpJSON(t, client, "DELETE", ts.URL+"/jobs/"+queued.ID, nil, &canceled); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("cancel: state %s, want %s", canceled.State, StateCanceled)
	}
	// 409 for the result of a job that is not done.
	if code := httpJSON(t, client, "GET", ts.URL+"/jobs/"+queued.ID+"/result", nil, nil); code != http.StatusConflict {
		t.Fatalf("result of canceled job: status %d, want 409", code)
	}

	// Error surface.
	if code := httpJSON(t, client, "GET", ts.URL+"/jobs/job-nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if code := httpJSON(t, client, "DELETE", ts.URL+"/jobs/job-nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d, want 404", code)
	}
	if code := httpJSON(t, client, "POST", ts.URL+"/jobs", JobSpec{}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", code)
	}
	var raw Status
	req, _ := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewBufferString("{not json"))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	_ = raw
}

// TestHTTPConcurrentClients hammers the API from many goroutines at once
// — the -race companion to TestConcurrentJobsWithCacheHits, exercising
// the handler layer itself.
func TestHTTPConcurrentClients(t *testing.T) {
	svc := New(Config{Workers: 4, QueueDepth: 64})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	const clients = 10
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			client := ts.Client()
			spec := fastSpec("s27", uint64(1+i%4)) // overlapping specs: some coalesce via cache
			var st Status
			if code := httpJSON(t, client, "POST", ts.URL+"/jobs", spec, &st); code != http.StatusAccepted && code != http.StatusOK {
				errc <- fmt.Errorf("client %d: submit status %d", i, code)
				return
			}
			deadline := time.Now().Add(60 * time.Second)
			for !st.State.Terminal() {
				if time.Now().After(deadline) {
					errc <- fmt.Errorf("client %d: job stuck", i)
					return
				}
				time.Sleep(5 * time.Millisecond)
				httpJSON(t, client, "GET", ts.URL+"/jobs/"+st.ID, nil, &st)
			}
			if st.State != StateDone {
				errc <- fmt.Errorf("client %d: state %s (%s)", i, st.State, st.Error)
				return
			}
			var res Result
			if code := httpJSON(t, client, "GET", ts.URL+"/jobs/"+st.ID+"/result", nil, &res); code != http.StatusOK {
				errc <- fmt.Errorf("client %d: result status %d", i, code)
				return
			}
			if res.Circuit != "s27" || res.NumSequences == 0 {
				errc <- fmt.Errorf("client %d: bad result %+v", i, res)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}
