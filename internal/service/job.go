package service

import (
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strings"
	"sync"
	"time"

	"seqbist/internal/bench"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/strategy"
	"seqbist/internal/vectors"
)

// State is the lifecycle phase of a job.
type State string

// Job states. A job moves queued -> running -> done|failed, or to
// canceled from queued/running. Cache hits are created directly in done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is a BIST-synthesis request: a circuit (registry name or inline
// .bench netlist), an optional externally supplied T0, and the generation
// configuration.
type JobSpec struct {
	// Circuit names a benchmark from the registry (e.g. "s298").
	Circuit string `json:"circuit,omitempty"`
	// Bench is an inline .bench netlist (alternative to Circuit).
	Bench string `json:"bench,omitempty"`
	// T0 optionally supplies the deterministic test sequence as
	// whitespace-separated vectors; when empty the service runs ATPG.
	T0 string `json:"t0,omitempty"`
	// Config controls generation.
	Config GenConfig `json:"config"`
}

// GenConfig is the generation configuration of a job. The zero value is
// usable: defaults are applied by withDefaults.
type GenConfig struct {
	// N is the expansion repetition count (default 4).
	N int `json:"n,omitempty"`
	// Seed drives ATPG and Procedure 2 (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// ATPGMaxLen caps the raw generated T0 length (default 1500).
	ATPGMaxLen int `json:"atpg_max_len,omitempty"`
	// MaxOmissionTrials bounds Procedure 2's omission simulations per
	// subsequence (0 = unlimited, the paper-faithful setting).
	MaxOmissionTrials int `json:"max_omission_trials,omitempty"`
	// SkipCompact disables §3.2 static compaction of the selected set.
	SkipCompact bool `json:"skip_compact,omitempty"`
	// Deprecated: ignored. Parallelism was the per-job fault-simulation
	// goroutine count; every job now simulates on its worker's goroutine
	// and parallelism comes from running jobs side by side
	// (Config.Workers). Specs, stored records, and clients that still
	// carry "parallelism" are accepted, and ValidateSpec rejects the
	// values it always rejected.
	Parallelism int `json:"parallelism,omitempty"`
	// Deprecated: ignored. Lanes was the per-job fault-packing width; the
	// simulator now always packs 64 faults per group. Specs, stored
	// records, and clients that still carry "lanes" are accepted, and
	// ValidateSpec rejects the values it always rejected.
	Lanes int `json:"lanes,omitempty"`
	// Strategy names the synthesis strategy from internal/strategy
	// ("greedy", "restart", "anneal", "genetic", or "race"; default
	// "greedy", the paper baseline). In a sweep, "race" additionally
	// fans the member out as one job per concrete strategy so a cluster
	// races them on different nodes (see sweep.go).
	Strategy string `json:"strategy,omitempty"`
}

// withDefaults resolves zero fields to the service defaults. The
// strategy default is fixed (strategy.Default), never the configurable
// Service default: claim loops re-resolve peer specs through this
// function, so it must be a pure function of the spec or two cluster
// members could disagree about what a stored record means.
func (g GenConfig) withDefaults() GenConfig {
	if g.N < 1 {
		g.N = 4
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.ATPGMaxLen < 1 {
		g.ATPGMaxLen = 1500
	}
	if g.Strategy == "" {
		g.Strategy = strategy.Default
	}
	return g
}

// resolveCircuit loads the requested circuit, either from the registry or
// by parsing the inline netlist under lim (the service passes its
// configured upload limits; zero means unlimited, for trusted callers).
func resolveCircuit(spec JobSpec, lim bench.Limits) (*netlist.Circuit, error) {
	switch {
	case spec.Circuit != "" && spec.Bench != "":
		return nil, fmt.Errorf("set either circuit or bench, not both")
	case spec.Circuit != "":
		return iscas.Load(spec.Circuit)
	case spec.Bench != "":
		return bench.ParseLimited(strings.NewReader(spec.Bench), "upload", lim)
	}
	return nil, fmt.Errorf("one of circuit or bench is required")
}

// resolveT0 parses the optional externally supplied T0 and validates its
// width against the circuit.
func resolveT0(spec JobSpec, c *netlist.Circuit) (vectors.Sequence, error) {
	if strings.TrimSpace(spec.T0) == "" {
		return nil, nil
	}
	t0, err := vectors.ParseSequence(spec.T0)
	if err != nil {
		return nil, fmt.Errorf("parsing t0: %v", err)
	}
	if t0.Width() != c.NumPIs() {
		return nil, fmt.Errorf("t0 width %d, circuit has %d PIs", t0.Width(), c.NumPIs())
	}
	return t0, nil
}

// contentKey content-addresses a job: the hash of the circuit's name and
// order-insensitive structural fingerprint, the supplied T0, and the
// normalized configuration. Two submissions with the same key are
// guaranteed to produce identical results (the pipeline is deterministic
// given the config), which is what makes the result cache sound. The name
// participates because Result.Circuit carries it: a registry circuit and
// a structurally identical upload produce equal numbers but differently
// labeled results, so they must not share a cache entry.
func contentKey(c *netlist.Circuit, t0 string, cfg GenConfig) string {
	// Parallelism and Lanes are ignored, so neither may fragment the
	// cache.
	cfg.Parallelism = 0
	cfg.Lanes = 0
	h := circuitHash(c)
	h.Write([]byte(strings.Join(strings.Fields(t0), " ")))
	h.Write([]byte{0})
	enc, _ := json.Marshal(cfg)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// circuitStates memoizes, per shared registry circuit, the SHA-256 state
// after contentKey's circuit prefix, so a submission hashes its T0 and
// config but neither rebuilds nor rehashes the netlist's fingerprint.
// iscas.Load returns one *Circuit per registry name, so this holds at
// most one entry per name; uploads are hashed on every call.
var circuitStates sync.Map // *netlist.Circuit -> []byte (marshaled sha256 state)

// circuitHash returns a SHA-256 hash that has absorbed contentKey's
// circuit prefix: c's name and structural fingerprint.
func circuitHash(c *netlist.Circuit) hash.Hash {
	h := sha256.New()
	if state, ok := circuitStates.Load(c); ok {
		// Restoring a state this package marshaled cannot fail.
		_ = h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state.([]byte))
		return h
	}
	h.Write([]byte(c.Name))
	h.Write([]byte{0})
	h.Write([]byte(bench.Fingerprint(c)))
	h.Write([]byte{0})
	if shared, err := iscas.Load(c.Name); err == nil && shared == c {
		if state, err := h.(encoding.BinaryMarshaler).MarshalBinary(); err == nil {
			circuitStates.Store(c, state)
		}
	}
	return h
}

// execution is one physical run of the synthesis pipeline. Jobs with the
// same content key submitted while an execution is in flight attach to it
// instead of enqueueing duplicate work (in-flight coalescing): all
// attached jobs observe the one run's lifecycle and share its result.
// Canceling an attached job only detaches it; the pipeline itself is
// interrupted when the last attached job detaches.
type execution struct {
	key string
	// c and t0 are the run's inputs; the worker takes them out when it
	// dequeues the execution (runExec).
	c   *netlist.Circuit
	t0  vectors.Sequence
	cfg GenConfig

	ctx    context.Context
	cancel context.CancelFunc

	// jobs and started are guarded by the Service mutex. jobs holds the
	// attached jobs in attach order (the submitter first); started flips
	// when a worker dequeues the execution.
	jobs    []*job
	started bool

	// Lease bookkeeping, guarded by the Service mutex: leaseID is the
	// claimed job record this run holds the execution lease for (empty
	// once released), leaseExpiry is when that
	// lease lapses unless renewed, and leaseLost flips when a renewal
	// discovers another daemon stole the job — the run is interrupted
	// and its jobs handed back to the poll loop.
	leaseID     string
	leaseExpiry time.Time
	leaseLost   bool
}

// detach removes j from the execution. Callers hold the Service mutex;
// the caller must cancel the execution when no jobs remain.
func (ex *execution) detach(j *job) {
	for i, other := range ex.jobs {
		if other == j {
			ex.jobs = append(ex.jobs[:i], ex.jobs[i+1:]...)
			return
		}
	}
}

// job is the internal mutable record. All fields below exec are guarded
// by the Service mutex.
type job struct {
	id      string
	seq     int64 // numeric suffix of id, mirrored into the store
	key     string
	spec    JobSpec
	cfg     GenConfig // normalized
	circuit string    // resolved circuit name (survives without c)
	c       *netlist.Circuit
	t0      vectors.Sequence

	// node is the daemon that accepted the submission (empty for the
	// store's exclusive writer). A job whose node differs from the
	// local NodeID is a mirror: a peer's record this daemon claimed for
	// execution.
	node string
	// tenant is the tenant the submission resolved to (never empty:
	// unauthenticated work is AnonymousTenant). Immutable after creation;
	// persisted on every record so ownership survives recovery, claims,
	// and adoption.
	tenant string
	// sweepID and member link a sweep-member job to its sweep (member
	// is the index; -1 otherwise), so a restarted daemon can rewire the
	// sweep's lifecycle hooks from the persisted records.
	sweepID string
	member  int
	// orphaned marks a job that was queued or running when a previous
	// process crashed and was re-enqueued at recovery.
	orphaned bool
	// specPersisted flips once the store holds the job's (immutable)
	// spec, so later state transitions write records without re-carrying
	// a possibly-megabyte uploaded netlist.
	specPersisted bool

	exec *execution // the run this job observes; nil for cache hits

	// onRunning and onTerminal, when non-nil, are invoked by the worker
	// after the corresponding state commits and the Service mutex is
	// released (so the hooks may call back into the Service). onRunning
	// fires at most once, when the job is dequeued; onTerminal exactly
	// once, with the final status and (for done jobs) the result — passed
	// directly rather than re-fetched by ID, because the job record may
	// be evicted the moment the mutex drops. Both hooks run on the
	// worker's goroutine, so a job's onRunning always precedes its
	// onTerminal. Sweeps use them to observe members without polling.
	onRunning  func(Status)
	onTerminal func(Status, *Result)

	state     State
	cacheHit  bool
	err       error
	result    *Result
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// release drops j's parsed circuit and T0 once j is terminal. Only a
// pending job runs from them, and a terminal record stays retained (up
// to MaxJobs) long after its run: holding an uploaded netlist or a
// supplied T0 that long would let tenant input pin memory. The spec
// stays, since parked store writes carry it until one lands. Callers
// hold the Service mutex.
func (j *job) release() { j.c, j.t0 = nil, nil }

// Status is a point-in-time snapshot of a job, safe to serialize.
type Status struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Circuit  string `json:"circuit"`
	Tenant   string `json:"tenant,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// status snapshots j. Callers must hold the Service mutex.
func (j *job) status() Status {
	st := Status{
		ID:          j.id,
		State:       j.state,
		Circuit:     j.circuit,
		Tenant:      j.tenant,
		CacheHit:    j.cacheHit,
		SubmittedAt: j.submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}
