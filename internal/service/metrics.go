package service

import (
	"sync"
	"sync/atomic"
	"time"

	"seqbist/internal/fsim"
)

// Metrics is the daemon's cumulative operational counter set, exposed as
// expvar-style flat JSON at GET /metrics. All counters are monotonically
// increasing atomics updated lock-free on the hot path; gauges (queue
// depth, jobs by state, cache entries) are sampled from the Service at
// snapshot time. One Metrics lives per Service.
type Metrics struct {
	jobsSubmitted atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64
	// jobsCoalesced counts submissions that attached to an identical
	// in-flight execution instead of enqueueing duplicate work.
	jobsCoalesced atomic.Int64

	sweepsStarted  atomic.Int64
	sweepsFinished atomic.Int64

	// Persistence counters, all zero without a configured store.
	// jobsRecovered / sweepsRecovered count records replayed at startup;
	// orphansRequeued counts jobs a recovery or adoption rebuild put
	// back on the queue (or completed off a stored result); storeErrors
	// counts store writes that failed (the in-memory state stays
	// authoritative) and stored records that no longer decode.
	jobsRecovered   atomic.Int64
	sweepsRecovered atomic.Int64
	orphansRequeued atomic.Int64
	storeErrors     atomic.Int64

	// Claim-loop counters. claimsWon /
	// claimsLost tally this daemon's lease arbitration outcomes;
	// jobsStolen counts claims won on work whose previous holder's
	// lease had expired (a killed or stalled peer); leasesExpired
	// counts expired leases acted on — stolen from peers or lost by
	// this daemon; remoteDone counts local jobs completed by peers'
	// terminal records; sweepsAdopted counts orphaned sweeps this
	// daemon took over after their owner stopped heartbeating.
	claimsWon     atomic.Int64
	claimsLost    atomic.Int64
	jobsStolen    atomic.Int64
	leasesExpired atomic.Int64
	remoteDone    atomic.Int64
	sweepsAdopted atomic.Int64

	// rateLimited counts submissions answered 429 by the HTTP layer's
	// per-client token bucket.
	rateLimited atomic.Int64

	// proc2Sims counts Procedure 2 expanded-sequence fault simulations
	// (the dominant cost of the pipeline, Result.Sims summed over jobs).
	proc2Sims atomic.Int64

	// Per-phase cumulative wall time across all jobs, keyed by the
	// pipeline stage names of pipeline.go.
	phaseATPG    atomic.Int64 // nanoseconds
	phaseSelect  atomic.Int64
	phaseCompact atomic.Int64
	phaseBIST    atomic.Int64

	// Strategy-portfolio counters (internal/strategy): per-strategy
	// runs/trials/wall time plus race accounting. Strategy names arrive
	// from job configs, so the per-name map is mutex-guarded rather than
	// a fixed set of atomics; updates are once per pipeline run, far off
	// the simulation hot path.
	strategyMu sync.Mutex
	// races counts decided races: in-pipeline `strategy=race` jobs plus
	// sweep-level race members whose winner was chosen.
	races int64
	// perStrategy is keyed by strategy name ("race" included: a race
	// run's wall time lands there, its legs' wins land under the
	// concrete winners).
	perStrategy map[string]*StrategyCounters

	// Per-tenant counters, keyed by tenant name. Tenant names arrive
	// from configs and recovered records, so — like the strategy map —
	// the cells are mutex-guarded; updates are once per submission or
	// completion, off the simulation hot path. The per-tenant gauges
	// (queue occupancy, drain rate, weight) are sampled from the Service
	// at snapshot time, not stored here.
	tenantMu  sync.Mutex
	perTenant map[string]*TenantCounters
}

// tenantCounters returns the (lazily created) counter cell for one
// tenant, normalizing the legacy empty name. Callers hold m.tenantMu.
func (m *Metrics) tenantCounters(name string) *TenantCounters {
	name = tenantName(name)
	if m.perTenant == nil {
		m.perTenant = make(map[string]*TenantCounters)
	}
	tc := m.perTenant[name]
	if tc == nil {
		tc = &TenantCounters{}
		m.perTenant[name] = tc
	}
	return tc
}

// observeTenantSubmit counts one admitted submission (direct job, sweep
// member, or race leg) for the tenant.
func (m *Metrics) observeTenantSubmit(name string) {
	if m == nil {
		return
	}
	m.tenantMu.Lock()
	m.tenantCounters(name).Submitted++
	m.tenantMu.Unlock()
}

// observeTenantDone counts one of the tenant's jobs finishing done.
func (m *Metrics) observeTenantDone(name string) {
	if m == nil {
		return
	}
	m.tenantMu.Lock()
	m.tenantCounters(name).Done++
	m.tenantMu.Unlock()
}

// observeTenantQuotaReject counts a submission rejected by the tenant's
// queued-jobs or active-sweeps quota (HTTP 429 quota_exceeded).
func (m *Metrics) observeTenantQuotaReject(name string) {
	if m == nil {
		return
	}
	m.tenantMu.Lock()
	m.tenantCounters(name).RejectedQuota++
	m.tenantMu.Unlock()
}

// observeTenantRateReject counts a submission rejected by the tenant's
// token bucket (HTTP 429 rate_limited).
func (m *Metrics) observeTenantRateReject(name string) {
	if m == nil {
		return
	}
	m.tenantMu.Lock()
	m.tenantCounters(name).RejectedRate++
	m.tenantMu.Unlock()
}

// observeTenantClaimWon counts a cluster claim this daemon won on the
// tenant's behalf (the fair-share scheduler's output, observable per
// tenant).
func (m *Metrics) observeTenantClaimWon(name string) {
	if m == nil {
		return
	}
	m.tenantMu.Lock()
	m.tenantCounters(name).ClaimsWon++
	m.tenantMu.Unlock()
}

// observePhase accumulates one pipeline stage's wall time. The stage
// names match pipeline.go's synthesize.
func (m *Metrics) observePhase(stage string, d time.Duration) {
	if m == nil {
		return
	}
	switch stage {
	case "atpg":
		m.phaseATPG.Add(int64(d))
	case "select":
		m.phaseSelect.Add(int64(d))
	case "compact":
		m.phaseCompact.Add(int64(d))
	case "bist":
		m.phaseBIST.Add(int64(d))
	}
}

// strategyCounters returns the (lazily created) counter cell for one
// strategy name. Callers hold m.strategyMu.
func (m *Metrics) strategyCounters(name string) *StrategyCounters {
	if m.perStrategy == nil {
		m.perStrategy = make(map[string]*StrategyCounters)
	}
	sc := m.perStrategy[name]
	if sc == nil {
		sc = &StrategyCounters{}
		m.perStrategy[name] = sc
	}
	return sc
}

// observeStrategy accumulates one pipeline selection run: the configured
// strategy's runs/trials/wall time, and — when the run was an
// in-pipeline race — the race tally and the winning leg's win.
func (m *Metrics) observeStrategy(name, winner string, trials int, wall time.Duration) {
	if m == nil {
		return
	}
	m.strategyMu.Lock()
	defer m.strategyMu.Unlock()
	sc := m.strategyCounters(name)
	sc.Runs++
	sc.Trials += int64(trials)
	sc.WallSeconds += wall.Seconds()
	if name != winner {
		m.races++
		m.strategyCounters(winner).Wins++
	}
}

// observeRaceWin records a sweep-level race member's decision: the
// winning leg's strategy gets the win (its run/trial/wall accounting
// already landed when the leg's own pipeline run finished).
func (m *Metrics) observeRaceWin(winner string) {
	if m == nil {
		return
	}
	m.strategyMu.Lock()
	defer m.strategyMu.Unlock()
	m.races++
	m.strategyCounters(winner).Wins++
}

// observeResult accumulates a completed job's simulation work.
func (m *Metrics) observeResult(res *Result) {
	if m == nil || res == nil {
		return
	}
	m.proc2Sims.Add(int64(res.Sims))
}

// MetricsSnapshot is the serialized form of GET /metrics: cumulative
// counters plus point-in-time gauges.
type MetricsSnapshot struct {
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Canceled  int64 `json:"canceled"`
		// Coalesced counts submissions served by attaching to an
		// identical in-flight execution (no duplicate work queued).
		Coalesced int64         `json:"coalesced"`
		ByState   map[State]int `json:"by_state"`
	} `json:"jobs"`
	Sweeps struct {
		Started  int64 `json:"started"`
		Finished int64 `json:"finished"`
		Active   int   `json:"active"`
	} `json:"sweeps"`
	Cache CacheStats `json:"cache"`
	Fsim  struct {
		Proc2Sims int64 `json:"proc2_sims"`
		// The remaining gauges are process-wide (see fsim.Stats).
		// PatternsApplied counts input vectors applied by the engines;
		// GatesEvaluated/GatesSkipped split the full-netlist gate count
		// into work done versus work proven unnecessary by the
		// active-region engine, and GroupsQuiescent counts whole
		// group-time-unit evaluations skipped by the quiescence check.
		// GroupsEscalated counts group-calls promoted to the flat
		// full-netlist stepper by the activity heuristic, and
		// GroupsRepacked the live groups dissolved when an engine
		// repacked its live faults into dense groups.
		PatternsApplied int64 `json:"patterns_applied"`
		GatesEvaluated  int64 `json:"gates_evaluated"`
		GatesSkipped    int64 `json:"gates_skipped"`
		GroupsQuiescent int64 `json:"groups_quiescent"`
		GroupsEscalated int64 `json:"groups_escalated"`
		GroupsRepacked  int64 `json:"groups_repacked"`
	} `json:"fsim"`
	// Strategy reports the synthesis-strategy portfolio: decided races
	// and per-strategy run/trial/win/wall-time counters.
	Strategy StrategySnapshot `json:"strategy"`
	// Tenant reports per-tenant admission and fair-share accounting.
	Tenant TenantSnapshot `json:"tenant"`
	// Store reports the persistence layer (a store.Memory when the
	// daemon runs without a data directory).
	Store *StoreSnapshot `json:"store,omitempty"`
	// Cluster reports the claim loop's coordination over the store; a
	// daemon without -node-id is a cluster of one (node_id "").
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`
	// HTTP reports the API edge (currently the per-client rate limiter).
	HTTP struct {
		// RateLimited counts submissions answered 429.
		RateLimited int64 `json:"rate_limited"`
	} `json:"http"`
	// PhaseSeconds is cumulative wall time per pipeline stage across all
	// jobs (parallel workers sum, so this can exceed elapsed real time).
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	Workers      int                `json:"workers"`
	QueueDepth   int                `json:"queue_depth"`
	QueueLen     int                `json:"queue_len"`
}

// StoreSnapshot is the "store" section of GET /metrics: the durable
// layer's write/compaction counters plus this process's recovery
// outcome.
type StoreSnapshot struct {
	// RecordsWritten counts record appends since the store opened.
	RecordsWritten int64 `json:"records_written"`
	// BytesOnDisk is the current footprint: log + snapshot + spilled
	// result files.
	BytesOnDisk int64 `json:"bytes_on_disk"`
	// Compactions counts snapshot compactions; LastCompaction is the
	// RFC 3339 time of the most recent one (empty if none yet).
	Compactions    int64  `json:"compactions"`
	LastCompaction string `json:"last_compaction,omitempty"`
	// RecordsReplayed counts records rehydrated at startup;
	// TruncatedTail reports that a torn record was discarded from the
	// log tail (expected after a crash mid-write).
	RecordsReplayed int64 `json:"records_replayed"`
	TruncatedTail   bool  `json:"truncated_tail,omitempty"`
	// RecordsRefreshed counts peers' records folded in after startup
	// (cluster mode); SkippedFrames counts torn frames skipped while
	// scanning the shared log (a crashed peer's interrupted append).
	RecordsRefreshed int64 `json:"records_refreshed"`
	SkippedFrames    int64 `json:"skipped_frames"`
	// JobsRecovered / SweepsRecovered count records rebuilt into live
	// service state at startup; OrphansRequeued counts jobs a recovery
	// or adoption rebuild re-enqueued (API.md).
	JobsRecovered   int64 `json:"jobs_recovered"`
	SweepsRecovered int64 `json:"sweeps_recovered"`
	OrphansRequeued int64 `json:"orphans_requeued"`
	// WriteErrors counts store writes that failed (the daemon keeps
	// serving from memory, but durability is degraded) and stored
	// records that no longer decode.
	WriteErrors int64 `json:"write_errors"`
	// Degraded reports the health state machine (DESIGN.md §13): true
	// while persistence is failing and the node rejects new submissions;
	// ParkedRecords is the gauge of writes held in memory awaiting
	// replay by the recovery probe.
	Degraded      bool  `json:"degraded"`
	ParkedRecords int64 `json:"parked_records"`
	// Epoch is the segmented WAL's current log generation (the fold
	// frontier advanced by each compaction round); SegmentsLive counts
	// per-node segment files currently on disk and SegmentsDeleted the
	// segment files removed by compaction GC since open; ManifestBytes
	// is the on-disk size of the manifest (shared ordering log) files,
	// a subset of bytes_on_disk. All zero for a memory store.
	Epoch           int64 `json:"epoch"`
	SegmentsLive    int64 `json:"segments_live"`
	SegmentsDeleted int64 `json:"segments_deleted"`
	ManifestBytes   int64 `json:"manifest_bytes"`
}

// StrategySnapshot is the "strategy" section of GET /metrics: the
// synthesis-strategy portfolio's race tally and per-strategy counters.
type StrategySnapshot struct {
	// Races counts decided races: in-pipeline `strategy=race` runs plus
	// sweep-level race members whose winning leg was chosen.
	Races int64 `json:"races"`
	// PerStrategy is keyed by strategy name.
	PerStrategy map[string]StrategyCounters `json:"per_strategy"`
}

// StrategyCounters is one strategy's cumulative accounting.
type StrategyCounters struct {
	// Runs counts pipeline selection runs configured with this strategy.
	Runs int64 `json:"runs"`
	// Trials counts full Procedure 1 selection runs evaluated (greedy
	// contributes 1 per run; searchers contribute their trial budget).
	Trials int64 `json:"trials"`
	// Wins counts races this strategy's result won.
	Wins int64 `json:"wins"`
	// WallSeconds is cumulative selection wall time.
	WallSeconds float64 `json:"wall_seconds"`
}

// TenantSnapshot is the "tenant" section of GET /metrics: per-tenant
// admission, completion, and fair-share accounting. Every tenant that
// is configured, has live work, or has counted anything since startup
// appears.
type TenantSnapshot struct {
	// PerTenant is keyed by tenant name ("anonymous" included).
	PerTenant map[string]TenantCounters `json:"per_tenant"`
}

// TenantCounters is one tenant's cumulative counters plus point-in-time
// gauges (sampled at snapshot).
type TenantCounters struct {
	// Submitted counts admitted submissions (direct jobs, sweep members,
	// race legs); Done counts jobs finishing done.
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	// RejectedQuota counts 429 quota_exceeded answers; RejectedRate
	// counts 429 rate_limited answers.
	RejectedQuota int64 `json:"rejected_quota"`
	RejectedRate  int64 `json:"rejected_rate"`
	// ClaimsWon counts cluster claims won on the tenant's records.
	ClaimsWon int64 `json:"claims_won"`
	// Gauges: current queue occupancy, non-terminal sweeps, the measured
	// drain rate behind the tenant's Retry-After answers, and the
	// scheduling profile in force.
	Queued       int     `json:"queued"`
	Running      int     `json:"running"`
	ActiveSweeps int     `json:"active_sweeps"`
	DrainPerSec  float64 `json:"drain_per_sec"`
	Weight       int     `json:"weight"`
	Priority     int     `json:"priority"`
}

// ClusterSnapshot is the "cluster" section of GET /metrics: this
// daemon's view of the multi-daemon coordination over the shared store.
type ClusterSnapshot struct {
	// NodeID is this daemon's cluster identity (-node-id).
	NodeID string `json:"node_id"`
	// Peers counts *other* nodes whose heartbeat is fresh (within three
	// lease TTLs); NodesSeen counts every node identity ever recorded
	// in the store, dead or alive.
	Peers     int `json:"peers"`
	NodesSeen int `json:"nodes_seen"`
	// ClaimsWon / ClaimsLost tally this daemon's lease arbitration
	// outcomes; ClaimsHeld is the gauge of leases currently held.
	ClaimsWon  int64 `json:"claims_won"`
	ClaimsLost int64 `json:"claims_lost"`
	ClaimsHeld int   `json:"claims_held"`
	// LeasesExpired counts expired leases this daemon acted on (stolen
	// from peers, or its own lost to one); JobsStolen counts claims won
	// on work whose previous holder died or stalled.
	LeasesExpired int64 `json:"leases_expired"`
	JobsStolen    int64 `json:"jobs_stolen"`
	// RemoteDone counts local jobs completed by peers' terminal records.
	RemoteDone int64 `json:"remote_done"`
	// SweepsAdopted counts orphaned sweeps this daemon took over after
	// their owning daemon stopped heartbeating (the adopter replays the
	// sweep's event log and finalizes its summary).
	SweepsAdopted int64 `json:"sweeps_adopted"`
	// DegradedPeers counts fresh peers currently advertising Degraded in
	// their heartbeat (their leases are stolen proactively).
	DegradedPeers int `json:"degraded_peers"`
}

// Metrics snapshots the service's counters and gauges.
func (s *Service) Metrics() MetricsSnapshot {
	var snap MetricsSnapshot
	m := &s.metrics
	snap.Jobs.Submitted = m.jobsSubmitted.Load()
	snap.Jobs.Done = m.jobsDone.Load()
	snap.Jobs.Failed = m.jobsFailed.Load()
	snap.Jobs.Canceled = m.jobsCanceled.Load()
	snap.Jobs.Coalesced = m.jobsCoalesced.Load()
	snap.Sweeps.Started = m.sweepsStarted.Load()
	snap.Sweeps.Finished = m.sweepsFinished.Load()
	snap.Fsim.Proc2Sims = m.proc2Sims.Load()
	sim := fsim.Stats()
	snap.Fsim.PatternsApplied = sim.PatternsApplied
	snap.Fsim.GatesEvaluated = sim.GatesEvaluated
	snap.Fsim.GatesSkipped = sim.GatesSkipped
	snap.Fsim.GroupsQuiescent = sim.GroupsQuiescent
	snap.Fsim.GroupsEscalated = sim.GroupsEscalated
	snap.Fsim.GroupsRepacked = sim.GroupsRepacked
	snap.PhaseSeconds = map[string]float64{
		"atpg":    time.Duration(m.phaseATPG.Load()).Seconds(),
		"select":  time.Duration(m.phaseSelect.Load()).Seconds(),
		"compact": time.Duration(m.phaseCompact.Load()).Seconds(),
		"bist":    time.Duration(m.phaseBIST.Load()).Seconds(),
	}
	snap.HTTP.RateLimited = m.rateLimited.Load()
	m.strategyMu.Lock()
	snap.Strategy.Races = m.races
	snap.Strategy.PerStrategy = make(map[string]StrategyCounters, len(m.perStrategy))
	for name, sc := range m.perStrategy {
		snap.Strategy.PerStrategy[name] = *sc
	}
	m.strategyMu.Unlock()
	// Copy the tenant counter cells; the gauges are filled in under s.mu
	// below, then the merged map lands in the snapshot.
	perTenant := make(map[string]*TenantCounters)
	m.tenantMu.Lock()
	for name, tc := range m.perTenant {
		cp := *tc
		perTenant[name] = &cp
	}
	m.tenantMu.Unlock()
	tenantCell := func(name string) *TenantCounters {
		name = tenantName(name)
		tc := perTenant[name]
		if tc == nil {
			tc = &TenantCounters{}
			perTenant[name] = tc
		}
		return tc
	}
	st := s.store.Stats()
	ss := &StoreSnapshot{
		RecordsWritten:   st.RecordsWritten,
		BytesOnDisk:      st.BytesOnDisk,
		Compactions:      st.Compactions,
		RecordsReplayed:  st.RecordsReplayed,
		TruncatedTail:    st.TruncatedTail,
		RecordsRefreshed: st.RecordsRefreshed,
		SkippedFrames:    st.SkippedFrames,
		JobsRecovered:    m.jobsRecovered.Load(),
		SweepsRecovered:  m.sweepsRecovered.Load(),
		OrphansRequeued:  m.orphansRequeued.Load(),
		WriteErrors:      m.storeErrors.Load(),
		Degraded:         s.degraded.Load(),
		ParkedRecords:    int64(s.parkedCount()),
		Epoch:            st.Epoch,
		SegmentsLive:     st.SegmentsLive,
		SegmentsDeleted:  st.SegmentsDeleted,
		ManifestBytes:    st.ManifestBytes,
	}
	if !st.LastCompaction.IsZero() {
		ss.LastCompaction = st.LastCompaction.UTC().Format(time.RFC3339)
	}
	snap.Store = ss
	cs := &ClusterSnapshot{
		NodeID:        s.cfg.NodeID,
		ClaimsWon:     m.claimsWon.Load(),
		ClaimsLost:    m.claimsLost.Load(),
		LeasesExpired: m.leasesExpired.Load(),
		JobsStolen:    m.jobsStolen.Load(),
		RemoteDone:    m.remoteDone.Load(),
		SweepsAdopted: m.sweepsAdopted.Load(),
	}
	if nodes, err := s.store.Nodes(); err != nil {
		s.noteStoreErr(err)
	} else {
		now := time.Now()
		for _, n := range nodes {
			cs.NodesSeen++
			if n.ID != s.cfg.NodeID && now.Sub(n.Time) < 3*s.cfg.LeaseTTL {
				cs.Peers++
				if n.Degraded {
					cs.DegradedPeers++
				}
			}
		}
	}
	snap.Cluster = cs

	s.mu.Lock()
	snap.Jobs.ByState = make(map[State]int)
	for name := range s.tenantByName {
		tenantCell(name) // configured tenants appear even while idle
	}
	for _, j := range s.jobs {
		snap.Jobs.ByState[j.state]++
		switch j.state {
		case StateQueued:
			tenantCell(j.tenant).Queued++
		case StateRunning:
			tenantCell(j.tenant).Running++
		}
	}
	for _, sw := range s.sweeps {
		if !sw.state.Terminal() {
			snap.Sweeps.Active++
			tenantCell(sw.tenant).ActiveSweeps++
		}
	}
	gaugeNow := time.Now()
	for name, ts := range s.tstate {
		if r, ok := ts.drain.rate(gaugeNow); ok {
			tenantCell(name).DrainPerSec = r
		}
	}
	for name, tc := range perTenant {
		cls := s.schedClass(name)
		tc.Weight = cls.weight
		tc.Priority = cls.priority
	}
	snap.Cache = CacheStats{Entries: s.cache.len(), Hits: s.cache.hits, Misses: s.cache.misses}
	snap.Workers = s.cfg.Workers
	snap.QueueDepth = s.cfg.QueueDepth
	snap.QueueLen = s.backlogLocked()
	snap.Cluster.ClaimsHeld = len(s.leases)
	s.mu.Unlock()
	snap.Tenant.PerTenant = make(map[string]TenantCounters, len(perTenant))
	for name, tc := range perTenant {
		snap.Tenant.PerTenant[name] = *tc
	}
	return snap
}
