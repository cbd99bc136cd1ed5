// Package service is the long-lived BIST-synthesis service: a job queue
// kept as queued records in a store.Store, drained by a claim loop into
// a worker pool that runs the full loading-and-expansion pipeline
// (ATPG/T0 -> Procedure 1 selection -> §3.2 compaction -> BIST session
// with golden signatures and hardware cost) per submitted job, fronted
// by an HTTP JSON API (see NewHandler). One daemon is a cluster of one:
// several daemons sharing a store drain the same queue the same way.
//
// Jobs are content-addressed: the hash of the circuit's name and
// structural fingerprint, the supplied T0, and the normalized
// configuration keys an LRU result cache, so resubmitting identical work
// completes instantly. Identical jobs submitted while the first is still
// queued or running are coalesced onto one in-flight execution: the
// duplicates attach as observers, share the single run's result, and a
// cancellation only interrupts the run when its last observer detaches.
// Each job runs on one worker goroutine, its fault simulations included,
// so the worker pool is the service's only parallelism. Cancellation
// reaches into Procedure 1 via the core.Config.Interrupt hook, so a
// DELETE aborts a running job between simulation trials rather than
// after the fact.
//
// On top of single jobs, the service runs batch sweeps (SubmitSweep): one
// request fans a shared configuration out over many circuits — registry
// names or uploaded .bench netlists, parsed under bench.Limits — through
// the same worker pool and result cache. Sweep progress is observable as
// an ordered event log that the HTTP layer exposes as an NDJSON stream
// (and as a polling snapshot), and a finished sweep carries a
// Table-3-style markdown summary aggregated via internal/experiments.
// Operational counters for the whole daemon are exported at GET /metrics.
// See DESIGN.md §6-§7 and API.md for the architecture and the HTTP
// surface.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seqbist/internal/bench"
	"seqbist/internal/netlist"
	"seqbist/internal/store"
	"seqbist/internal/strategy"
	"seqbist/internal/vectors"
)

// Errors the API surfaces to clients.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrQueueFull reports that the submission queue is at capacity.
	ErrQueueFull = errors.New("service: queue full")
	// ErrClosed reports submission to a shut-down service.
	ErrClosed = errors.New("service: closed")
	// ErrNotDone reports a result request for an unfinished job.
	ErrNotDone = errors.New("service: job not done")
)

// Config sizes the service.
type Config struct {
	// Workers is the synthesis worker-pool size (default 4).
	Workers int
	// QueueDepth caps this node's queued jobs that no claim has picked
	// up yet (default 64); submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// CacheSize is the maximum number of cached results (default 128;
	// negative disables caching).
	CacheSize int
	// MaxJobs bounds the number of retained job records (default 1024;
	// negative disables eviction). When the bound is exceeded, the
	// oldest *terminal* jobs are evicted; queued and running jobs are
	// never dropped, so the bound is soft while more than MaxJobs jobs
	// are actually in flight.
	MaxJobs int
	// DefaultStrategy is applied to submissions that leave
	// GenConfig.Strategy empty (default strategy.Default, the paper's
	// greedy baseline). It is resolved at the submission edge — before
	// the spec is content-addressed or persisted — so a stored spec is
	// always explicit about its strategy and cluster members with
	// different defaults still agree on what every record means.
	DefaultStrategy string
	// MaxSweepMembers caps the number of circuits one sweep may contain
	// (default 64).
	MaxSweepMembers int
	// MaxSweeps bounds the number of retained sweep records (default 128;
	// negative disables eviction). Oldest terminal sweeps are evicted
	// first; running sweeps are never dropped.
	MaxSweeps int
	// BenchLimits bounds uploaded .bench netlists (default
	// bench.UploadLimits; negative fields disable the respective limit).
	BenchLimits bench.Limits
	// Store holds every piece of job, sweep, event-log, and result-cache
	// state: each transition is mirrored into it, and it is also the
	// job queue — a submission is a durable queued record that the claim
	// loop leases for execution. New replays the store's state, and jobs
	// that were queued or running when the previous process died become
	// queued records again, so a restart resumes exactly where the crash
	// left off (see DESIGN.md §9). The Service takes ownership and closes
	// the store after the worker pool drains. Nil (the default) means a
	// fresh store.NewMemory(): the same dispatch path, with nothing
	// surviving the process.
	Store store.Store

	// NodeID is this service's identity in the store. Empty (the
	// default) holds the store exclusively, as its single writer: job
	// and sweep IDs are "job-000001"/"sweep-0001", and result bodies are
	// deleted as soon as their last local referent goes. A non-empty
	// NodeID makes this service one member of a multi-daemon cluster:
	// every daemon that opens the same store under a distinct NodeID
	// cooperatively drains one queue, each claim loop leasing records
	// for execution (stealing work whose holder's lease expired, e.g. a
	// SIGKILLed peer), so any member's jobs and sweeps finish as long as
	// one member survives. IDs are namespaced per node
	// ("job-<node>-000001"), and shared result bodies are never deleted
	// online. Dispatch is the same claim loop either way; see DESIGN.md
	// §10.
	NodeID string
	// LeaseTTL is how long a claimed job stays fenced to its claimant
	// without renewal (default 10s). Shorter TTLs re-assign a killed
	// member's work faster but tolerate less scheduling delay before
	// peers steal a live member's jobs (safe — results are
	// content-addressed — but wasteful).
	LeaseTTL time.Duration
	// PollInterval is the claim-loop cadence (default LeaseTTL/20,
	// clamped to [100ms, 1s]).
	PollInterval time.Duration

	// ProbeInterval paces the degraded-mode recovery probe (default 2s):
	// how often a node whose store writes failed replays its parked
	// records to test whether the disk recovered (see degrade.go). It is
	// also the honest Retry-After the HTTP layer attaches to degraded
	// 503s. A store.Memory never fails, so it matters only on disk.
	ProbeInterval time.Duration
	// ShutdownTimeout bounds the graceful drain in Serve: how long
	// in-flight HTTP requests (including sweep event streams) get to
	// finish after SIGINT/SIGTERM before the listener is torn down
	// (default 10s).
	ShutdownTimeout time.Duration

	// RateLimit, when positive, enables a submission token bucket on
	// POST /v1/jobs and /v1/sweeps: anonymous clients are keyed by
	// remote host and each named tenant gets one budget of its own
	// (TenantConfig.Rate overrides this service-wide rate per tenant);
	// beyond the budget the HTTP layer answers 429 with a Retry-After
	// header. Zero disables limiting for tenants that set no rate.
	RateLimit float64
	// RateBurst is the token-bucket depth (default max(1, ceil(RateLimit))).
	RateBurst int

	// Tenants declares the multi-tenant admission-control table: API
	// keys, weights, priority classes, and quotas (see TenantConfig and
	// the -tenants flag). Empty keeps legacy single-tenant behavior —
	// everything runs as the built-in anonymous tenant with no quotas.
	Tenants []TenantConfig
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 1024
	}
	if c.MaxSweepMembers < 1 {
		c.MaxSweepMembers = 64
	}
	if c.DefaultStrategy == "" {
		c.DefaultStrategy = strategy.Default
	}
	if c.MaxSweeps == 0 {
		c.MaxSweeps = 128
	}
	if c.BenchLimits == (bench.Limits{}) {
		c.BenchLimits = bench.UploadLimits
	}
	if c.BenchLimits.MaxBytes < 0 {
		c.BenchLimits.MaxBytes = 0
	}
	if c.BenchLimits.MaxSignals < 0 {
		c.BenchLimits.MaxSignals = 0
	}
	if c.Store == nil {
		c.Store = store.NewMemory()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = min(max(c.LeaseTTL/20, 100*time.Millisecond), time.Second)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.RateLimit > 0 && c.RateBurst < 1 {
		c.RateBurst = int(c.RateLimit)
		if float64(c.RateBurst) < c.RateLimit {
			c.RateBurst++
		}
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	return c
}

// Service is the synthesis job manager. Create with New, stop with Close.
type Service struct {
	cfg Config
	// queue hands executions the claim loop won (startClaimed) to the
	// worker pool. It is not the job queue — that is the store's queued
	// records — so it holds at most the claim budget, Workers+1.
	queue chan *execution

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	metrics Metrics

	store store.Store

	mu         sync.Mutex
	jobs       map[string]*job
	order      []string // submission order, for listing
	cache      *resultCache
	inflight   map[string]*execution // content key -> in-flight run
	leases     map[string]*execution // job ID -> locally-claimed run
	seq        int64
	sweeps     map[string]*sweep
	sweepOrder []string // creation order, for listing and eviction
	sweepSeq   int64
	closed     bool

	// Claim-loop plumbing: started stamps the heartbeat record,
	// clusterWake nudges the claim loop ahead of its next tick (local
	// submissions and freed workers should not wait a full poll
	// interval), lastHeartbeat throttles heartbeat records (touched only
	// by the claim loop).
	started       time.Time
	clusterWake   chan struct{}
	lastHeartbeat time.Time

	// The claim loop's incremental working set (see cluster.go): the
	// store Changes cursor, the record mirror it maintains from the
	// deltas, and the sweep-adoption scan throttle. Touched only by the
	// cluster goroutine, so they need no lock of their own (the mirror
	// maps are read under s.mu where observe/claim state is consulted,
	// but written by that same goroutine).
	changeCursor  uint64
	remoteRecs    map[string]store.JobRecord
	remoteSweeps  map[string]store.SweepRecord
	lastAdoptScan time.Time

	// Tenant lookup tables, built once by New (buildTenants) and
	// immutable afterwards, so the HTTP auth path and the claim loop
	// read them without locking. anonDefault backs the synthesized
	// anonymous entry when the config lists none.
	tenantByName map[string]*TenantConfig
	tenantByKey  map[string]*TenantConfig
	anonDefault  TenantConfig

	// Per-tenant runtime accounting (drain meters) and the service-wide
	// drain meter, guarded by s.mu. drr is the claim loop's
	// deficit-round-robin state, touched only by the cluster goroutine
	// (like the mirror maps above).
	tstate      map[string]*tenantState
	globalDrain drainMeter
	drr         drrState

	// resultRefs counts, per content key, the live referents of a
	// stored result body: done job records plus cache entries. When the
	// last referent disappears (retention or LRU eviction) the body is
	// deleted from the store when this service holds it exclusively.
	resultRefs map[string]int

	// Degradation state machine (degrade.go). degraded is atomic so the
	// submission and readiness hot paths read it without a lock; the
	// buffer of parked writes and the failure cause live under healthMu,
	// which is leaf-ordered after s.mu (code holding s.mu may park, the
	// probe never takes s.mu while holding healthMu). lastClusterTick is
	// the claim loop's liveness stamp for /readyz (unix nanos).
	degraded        atomic.Bool
	healthMu        sync.Mutex
	degradeReason   error
	parked          []parkedRecord
	parkedHead      int
	parkedIdx       map[string]int
	lastClusterTick atomic.Int64
}

// New starts a service with cfg's worker pool and claim loop running.
// The store's state is replayed first: terminal jobs, sweeps, event
// logs, and cached results reappear, and jobs that were queued or
// running when the previous process died become queued records again
// (marked orphaned), which the claim loop picks up like any other
// submission — re-running is safe because results are content-addressed
// and coalescing dedups observers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:          cfg,
		queue:        make(chan *execution, cfg.Workers+1),
		store:        cfg.Store,
		rootCtx:      ctx,
		rootCancel:   cancel,
		jobs:         make(map[string]*job),
		inflight:     make(map[string]*execution),
		leases:       make(map[string]*execution),
		sweeps:       make(map[string]*sweep),
		cache:        newResultCache(cfg.CacheSize),
		resultRefs:   make(map[string]int),
		started:      time.Now(),
		clusterWake:  make(chan struct{}, 1),
		remoteRecs:   make(map[string]store.JobRecord),
		remoteSweeps: make(map[string]store.SweepRecord),
		parkedIdx:    make(map[string]int),
		tstate:       make(map[string]*tenantState),
		drr:          drrState{deficit: make(map[string]float64)},
	}
	s.buildTenants()
	s.cache.onEvict = s.decResultRef
	s.lastClusterTick.Store(s.started.UnixNano())
	s.recover()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(2)
	go s.clusterLoop()
	go s.probeLoop()
	return s
}

// newJobID formats a job ID; a named node namespaces it so concurrent
// daemons sharing one store cannot collide.
func (s *Service) newJobID(seq int64) string {
	if s.cfg.NodeID != "" {
		return fmt.Sprintf("job-%s-%06d", s.cfg.NodeID, seq)
	}
	return fmt.Sprintf("job-%06d", seq)
}

// newSweepID formats a sweep ID, namespaced like newJobID.
func (s *Service) newSweepID(seq int64) string {
	if s.cfg.NodeID != "" {
		return fmt.Sprintf("sweep-%s-%04d", s.cfg.NodeID, seq)
	}
	return fmt.Sprintf("sweep-%04d", seq)
}

// Submit validates spec, registers a job, and enqueues it as the
// anonymous tenant. If an identical job (same content key) has already
// completed, the returned job is created directly in the done state
// with CacheHit set and the cached result attached — no work is queued.
func (s *Service) Submit(spec JobSpec) (Status, error) {
	return s.SubmitAs(AnonymousTenant, spec)
}

// SubmitAs is Submit attributed to a named tenant (resolved by the HTTP
// layer from the request's bearer key — tenant identity is never
// client-suppliable in the spec body). The tenant's queued-jobs quota
// is enforced atomically with registration; rejections carry a
// QuotaError whose RetryAfter reflects the tenant's measured drain
// rate.
func (s *Service) SubmitAs(tenant string, spec JobSpec) (Status, error) {
	if s.degraded.Load() {
		// Accepting work we cannot persist would silently shed the
		// durability contract; reject at the edge and let the client's
		// retry (or a healthy peer) take it.
		return Status{}, s.degradedErr()
	}
	if spec.Config.Strategy == "" {
		spec.Config.Strategy = s.cfg.DefaultStrategy
	}
	if err := ValidateSpec(spec); err != nil {
		return Status{}, fmt.Errorf("invalid job: %w", err)
	}
	c, err := resolveCircuit(spec, s.cfg.BenchLimits)
	if err != nil {
		return Status{}, fmt.Errorf("invalid job: %w", err)
	}
	t0, err := resolveT0(spec, c)
	if err != nil {
		return Status{}, fmt.Errorf("invalid job: %w", err)
	}
	return s.submitJob(c, t0, spec, tenant, "", -1, nil, nil)
}

// submitJob registers and enqueues one pre-resolved job with the given
// lifecycle hooks (see the job struct; onTerminal fires immediately for
// cache hits, after the Service mutex is released). Both Submit and the
// sweep fan-out land here.
//
// Identical work is never run twice concurrently: if an execution with
// the same content key is already queued or running, the new job attaches
// to it (in-flight coalescing) and shares its lifecycle and result; the
// coalesced counter in GET /metrics counts these attachments.
func (s *Service) submitJob(c *netlist.Circuit, t0 vectors.Sequence, spec JobSpec, tenant, sweepID string, member int, onRunning func(Status), onTerminal func(Status, *Result)) (Status, error) {
	cfg := spec.Config.withDefaults()
	key := contentKey(c, spec.T0, cfg)
	tenant = tenantName(tenant)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, ErrClosed
	}
	s.seq++
	j := &job{
		id:         s.newJobID(s.seq),
		seq:        s.seq,
		key:        key,
		spec:       spec,
		cfg:        cfg,
		circuit:    c.Name,
		c:          c,
		t0:         t0,
		node:       s.cfg.NodeID,
		tenant:     tenant,
		sweepID:    sweepID,
		member:     member,
		onRunning:  onRunning,
		onTerminal: onTerminal,
		submitted:  time.Now(),
	}
	if res, ok := s.cache.get(key); ok {
		j.state = StateDone
		j.cacheHit = true
		j.result = res
		j.finished = j.submitted
		j.release()
		// The cache entry keeps the result body alive in the store, so a
		// cache-hit job only adds its own reference — and it must do so
		// *before* register, whose retention pass may evict this very job
		// (terminal on arrival) and release the reference again; the
		// other order would drop the refcount below the cache entry's
		// claim and delete the stored body out from under it.
		s.incResultRef(key)
		s.persistJob(j)
		s.register(j)
		st := j.status()
		s.mu.Unlock()
		// Cache hits are tracked by the resultCache itself and surface in
		// the snapshot's CacheStats.
		s.metrics.jobsSubmitted.Add(1)
		s.metrics.jobsDone.Add(1)
		s.metrics.observeTenantSubmit(tenant)
		s.metrics.observeTenantDone(tenant)
		if onTerminal != nil {
			onTerminal(st, res)
		}
		return st, nil
	}
	if sweepID == "" {
		// Quota admission for direct submissions only: sweep members
		// were admitted with their sweep, and cache hits above hold no
		// queue slot. Checked under the same mutex hold that registers
		// the job, so racing submissions cannot both squeeze under the
		// limit.
		if err := s.admitJobLocked(tenant, j.submitted); err != nil {
			s.mu.Unlock()
			s.metrics.observeTenantQuotaReject(tenant)
			return Status{}, err
		}
	}
	if ex, ok := s.inflight[key]; ok {
		// Coalesce: attach to the in-flight run.
		j.exec = ex
		j.state = StateQueued
		running := ex.started
		if running {
			j.state = StateRunning
			j.started = time.Now()
		}
		ex.jobs = append(ex.jobs, j)
		s.register(j)
		s.persistJob(j)
		st := j.status()
		s.mu.Unlock()
		s.metrics.jobsSubmitted.Add(1)
		s.metrics.jobsCoalesced.Add(1)
		s.metrics.observeTenantSubmit(tenant)
		if running && onRunning != nil {
			onRunning(st)
		}
		return st, nil
	}
	if s.backlogLocked() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	// The durable queued record *is* the queue. Every claim loop sharing
	// the store — this daemon's included — races to lease it; whoever
	// wins executes and publishes the result under the content key, and
	// this daemon's loop completes j and fires its hooks when the
	// terminal record appears.
	j.state = StateQueued
	s.register(j)
	s.persistJob(j)
	st := j.status()
	s.mu.Unlock()
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.observeTenantSubmit(tenant)
	s.nudgeCluster()
	return st, nil
}

// backlogLocked counts this node's own queued jobs that no claim has
// picked up yet — the submissions QueueDepth bounds. Claimed work (on
// the workers or in their hand-off) and coalesced observers hold no
// slot; peers' records are theirs to bound. Counting iterates the
// retained job table, like admitJobLocked. Callers hold s.mu.
func (s *Service) backlogLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.state == StateQueued && j.exec == nil && j.node == s.cfg.NodeID {
			n++
		}
	}
	return n
}

// register records j and evicts the oldest terminal records beyond the
// retention bound, so a long-lived daemon's memory does not grow with
// total submissions. Callers hold s.mu.
func (s *Service) register(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if s.cfg.MaxJobs < 0 || len(s.order) <= s.cfg.MaxJobs {
		return
	}
	over := len(s.order) - s.cfg.MaxJobs
	kept := s.order[:0]
	for _, id := range s.order {
		if over > 0 && s.jobs[id].state.Terminal() {
			s.dropJobRecord(s.jobs[id])
			delete(s.jobs, id)
			over--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Status returns a snapshot of the named job.
func (s *Service) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Result returns the named job's result. ErrNotDone is returned while
// the job is queued or running, or if it failed or was canceled.
func (s *Service) Result(id string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.state != StateDone {
		return nil, fmt.Errorf("%w (state %s)", ErrNotDone, j.state)
	}
	return j.result, nil
}

// Cancel requests cancellation of the named job: it flips to canceled
// immediately and detaches from its execution. The underlying pipeline
// run is only interrupted (Procedure 1 polls the hook between trials)
// when no other coalesced job remains attached — canceling one of several
// identical submissions never disturbs the others. Canceling a terminal
// job is a no-op.
func (s *Service) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, ErrNotFound
	}
	var hook func(Status, *Result)
	flipped := false
	switch j.state {
	case StateQueued, StateRunning:
		j.state = StateCanceled
		j.err = context.Canceled
		j.finished = time.Now()
		j.release()
		flipped = true
		hook = j.onTerminal
		j.onTerminal = nil // the worker must not fire it again
		if ex := j.exec; ex != nil {
			ex.detach(j)
			if len(ex.jobs) == 0 {
				// Last observer gone: interrupt the run and clear the
				// coalescing slot so new submissions start fresh.
				ex.cancel()
				s.dropInflight(ex)
			}
		}
		s.persistJob(j)
		s.noteDrainLocked(j.tenant, j.finished)
	}
	st := j.status()
	s.mu.Unlock()
	if flipped {
		s.metrics.jobsCanceled.Add(1)
		if hook != nil {
			hook(st, nil)
		}
	}
	return st, nil
}

// Stats is an operational snapshot for health checks.
type Stats struct {
	Workers    int           `json:"workers"`
	QueueDepth int           `json:"queue_depth"`
	Jobs       map[State]int `json:"jobs"`
	Cache      CacheStats    `json:"cache"`
}

// CacheStats reports result-cache effectiveness.
type CacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Jobs:       make(map[State]int),
		Cache: CacheStats{
			Entries: s.cache.len(),
			Hits:    s.cache.hits,
			Misses:  s.cache.misses,
		},
	}
	for _, j := range s.jobs {
		st.Jobs[j.state]++
	}
	return st
}

// Close stops accepting jobs, cancels everything in flight, waits for
// the workers to drain, and flushes and closes the store, so every
// terminal record reaches disk before the daemon exits. Queued records
// nobody claimed stay queued in the store for the next process.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.rootCancel()
	close(s.queue)
	s.wg.Wait()
	// Every acknowledged write is already on disk (the WAL syncs
	// per-append); a close failure here can only lose records that were
	// never acknowledged to a caller.
	_ = s.store.Close()
}

// dropInflight clears ex's coalescing slot, but only while the slot is
// still ex's: an execution abandoned by cancellation may be processed by
// a worker after a fresh identical submission has already registered a
// new execution under the same content key, and deleting blindly would
// evict the newer run's slot and let duplicates sneak past coalescing.
// Callers hold s.mu.
func (s *Service) dropInflight(ex *execution) {
	if s.inflight[ex.key] == ex {
		delete(s.inflight, ex.key)
	}
}

// worker drains the claim loop's hand-off until Close. A freed worker
// wakes the claim loop: the loop leases at most Workers+1 records, so
// without the wake a deeper backlog would wait out a poll interval
// between jobs.
func (s *Service) worker() {
	defer s.wg.Done()
	for ex := range s.queue {
		s.runExec(ex)
		s.nudgeCluster()
	}
}

// terminalHook pairs a job's terminal callback with its final status so
// hooks can fire after the Service mutex is released.
type terminalHook struct {
	fn func(Status, *Result)
	st Status
}

// runExec executes one coalesced run end to end, commits the terminal
// state of every job still attached, and fires their hooks (outside the
// mutex, so the hooks may call back into the Service).
func (s *Service) runExec(ex *execution) {
	s.mu.Lock()
	// Canceled jobs keep pointing at ex, so it must not hold the inputs
	// past this point (see job.release).
	c, t0 := ex.c, ex.t0
	ex.c, ex.t0 = nil, nil
	if len(ex.jobs) == 0 { // every attached job was canceled while queued
		s.dropInflight(ex)
		s.releaseLeaseLocked(ex)
		s.mu.Unlock()
		return
	}
	ex.started = true
	started := time.Now()
	var runHooks []func(Status)
	var runSts []Status
	for _, j := range ex.jobs {
		j.state = StateRunning
		j.started = started
		s.persistJob(j)
		if j.onRunning != nil {
			runHooks = append(runHooks, j.onRunning)
			runSts = append(runSts, j.status())
		}
	}
	s.mu.Unlock()
	for i, fn := range runHooks {
		fn(runSts[i])
	}

	res, err := synthesize(ex.ctx, c, t0, ex.cfg, &s.metrics)
	ctxErr := ex.ctx.Err()
	ex.cancel() // release the context's registration under rootCtx

	s.mu.Lock()
	s.dropInflight(ex)
	finished := time.Now()
	jobs := ex.jobs
	ex.jobs = nil
	if ctxErr != nil && ex.leaseLost {
		// The run was interrupted because another daemon stole the lease
		// after it expired (this process stalled, or renewal raced a
		// restart). The thief now owns the claimed job's record; hand
		// every attached job back to the poll loop un-terminal — the
		// thief's result lands under the same content key and completes
		// them without duplicate records from this side.
		for _, j := range jobs {
			j.state = StateQueued
			j.started = time.Time{}
			j.exec = nil
		}
		s.releaseLeaseLocked(ex)
		s.mu.Unlock()
		return
	}
	if ctxErr == nil && err == nil {
		// The result body lands in the store before any job record that
		// references it, so replay never sees a done job whose result is
		// missing (if it somehow does, recovery re-enqueues the job).
		s.persistResult(ex.key, res)
		if s.cache.put(ex.key, res) {
			s.incResultRef(ex.key)
		}
	}
	for _, j := range jobs {
		j.finished = finished
		j.release()
		switch {
		case ctxErr != nil:
			j.state = StateCanceled
			j.err = ctxErr
		case err != nil:
			j.state = StateFailed
			j.err = err
		default:
			j.state = StateDone
			j.result = res
			s.incResultRef(j.key)
		}
		s.persistJob(j)
		s.noteDrainLocked(j.tenant, finished)
	}
	var hooks []terminalHook
	for _, j := range jobs {
		if j.onTerminal != nil {
			hooks = append(hooks, terminalHook{fn: j.onTerminal, st: j.status()})
			j.onTerminal = nil
		}
	}
	// The terminal records above land in the store *before* the lease
	// release, so no peer can claim the job in a non-terminal state.
	s.releaseLeaseLocked(ex)
	s.mu.Unlock()

	for _, j := range jobs {
		switch {
		case ctxErr != nil:
			s.metrics.jobsCanceled.Add(1)
		case err != nil:
			s.metrics.jobsFailed.Add(1)
		default:
			s.metrics.jobsDone.Add(1)
			s.metrics.observeTenantDone(j.tenant)
		}
	}
	// The pipeline ran once no matter how many coalesced jobs observed
	// it, so simulation-work accounting is per execution, not per job.
	if ctxErr == nil && err == nil {
		s.metrics.observeResult(res)
	}
	for _, h := range hooks {
		h.fn(h.st, res)
	}
}
