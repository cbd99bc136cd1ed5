package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"seqbist/internal/iscas"
	"seqbist/internal/store"
)

// resultDigest hashes every deterministic field of r (all but ElapsedMS).
func resultDigest(t *testing.T, r *Result) string {
	t.Helper()
	cp := *r
	cp.ElapsedMS = 0
	enc, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// TestSharedCircuitConcurrentSynthesize runs the pipeline on one shared
// registry circuit from several goroutines at once: every run reads the
// same *Circuit and its lazily built views, so under -race this checks
// that nothing writes a shared circuit, and every digest must equal a
// serial run's.
func TestSharedCircuitConcurrentSynthesize(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	spec := func(seed uint64) JobSpec {
		return JobSpec{Circuit: "s298", Config: GenConfig{N: 2, Seed: seed, ATPGMaxLen: 120, MaxOmissionTrials: 20}}
	}
	want := make(map[uint64]string)
	for _, seed := range seeds {
		res, err := Synthesize(context.Background(), spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = resultDigest(t, res)
	}

	const perSeed = 2
	type run struct {
		seed uint64
		res  *Result
		err  error
	}
	runs := make(chan run, perSeed*len(seeds))
	var wg sync.WaitGroup
	for k := 0; k < perSeed; k++ {
		for _, seed := range seeds {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				res, err := Synthesize(context.Background(), spec(seed))
				runs <- run{seed, res, err}
			}(seed)
		}
	}
	wg.Wait()
	close(runs)
	for r := range runs {
		if r.err != nil {
			t.Fatalf("seed %d: %v", r.seed, r.err)
		}
		if got := resultDigest(t, r.res); got != want[r.seed] {
			t.Errorf("seed %d: concurrent digest %s, serial %s", r.seed, got, want[r.seed])
		}
	}
}

// TestTerminalJobsReleaseInputs checks that a finished job keeps neither
// its parsed circuit nor its T0, whether the circuit came from the
// registry, was uploaded, or the T0 was supplied, and whether the job
// ran or was a cache hit; the execution that ran it holds none either.
func TestTerminalJobsReleaseInputs(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	cfg := tinyCfg()
	specs := []JobSpec{
		{Circuit: "s27", Config: cfg},
		{Bench: iscas.S27Source, Config: cfg},
		{Circuit: "s27", T0: "0110 1011 0011 1100 0101 1111 0000 1001 0111 1010", Config: cfg},
		{Circuit: "s27", Config: cfg}, // a cache hit of the first
	}
	for i, spec := range specs {
		st, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if fin := waitTerminal(t, svc, st.ID, 60*time.Second); fin.State != StateDone {
			t.Fatalf("spec %d: state %s (%s)", i, fin.State, fin.Error)
		}
		if i == 3 && !st.CacheHit {
			t.Fatalf("spec %d: want a cache hit", i)
		}
		svc.mu.Lock()
		j := svc.jobs[st.ID]
		held := j.c != nil || j.t0 != nil || (j.exec != nil && (j.exec.c != nil || j.exec.t0 != nil))
		svc.mu.Unlock()
		if held {
			t.Errorf("spec %d: done job still holds its circuit or T0", i)
		}
		if _, err := svc.Result(st.ID); err != nil {
			t.Errorf("spec %d: result: %v", i, err)
		}
	}
}

// heldCircuit waits until job id is registered with a resolved circuit
// and reports whether that circuit is the shared registry one for name.
func heldCircuit(t *testing.T, svc *Service, id, name string) bool {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		svc.mu.Lock()
		j := svc.jobs[id]
		var held bool
		if j != nil && j.c != nil {
			held = j.c == iscas.MustLoad(name)
		}
		resolved := j != nil && j.c != nil
		svc.mu.Unlock()
		if resolved {
			return held
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never held a resolved circuit", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServicePathsShareRegistryCircuit checks that a sweep member, a
// recovered queued record and a claimed peer record all run on the one
// process-wide circuit iscas.Load returns, not on a rebuilt copy. The
// jobs are several-second s1423 ATPG runs, so each is still pending
// (and so still holds its circuit) when inspected; Close interrupts it.
func TestServicePathsShareRegistryCircuit(t *testing.T) {
	spec := longSpec(1)
	cfg := spec.Config.withDefaults()
	specData, _ := json.Marshal(spec)
	record := func(id, node string) store.JobRecord {
		return store.JobRecord{
			ID: id, Seq: 1, Key: contentKey(iscas.MustLoad("s1423"), "", cfg),
			Circuit: "s1423", Spec: specData, Node: node, Member: -1,
			State: string(StateQueued), Submitted: time.Now(),
		}
	}

	t.Run("sweep member", func(t *testing.T) {
		svc := New(Config{Workers: 1})
		defer svc.Close()
		sw, err := svc.SubmitSweep(SweepSpec{Circuits: []CircuitRef{{Circuit: "s1423"}}, Config: spec.Config})
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc.Sweep(sw.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !heldCircuit(t, svc, st.Members[0].JobID, "s1423") {
			t.Error("sweep member resolved a private copy of s1423")
		}
	})

	t.Run("recovered queued record", func(t *testing.T) {
		mem := store.NewMemory()
		if err := mem.PutJob(record("job-000001", "")); err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Workers: 1, Store: mem})
		defer svc.Close()
		if !heldCircuit(t, svc, "job-000001", "s1423") {
			t.Error("recovered record resolved a private copy of s1423")
		}
	})

	t.Run("claimed peer record", func(t *testing.T) {
		mem := store.NewMemory()
		if err := mem.PutJob(record("job-peer-000001", "peer")); err != nil {
			t.Fatal(err)
		}
		svc := New(clusterCfg(mem, "a"))
		defer svc.Close()
		if !heldCircuit(t, svc, "job-peer-000001", "s1423") {
			t.Error("claimed peer record resolved a private copy of s1423")
		}
	})
}
