package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"seqbist/internal/experiments"
	"seqbist/internal/store"
	"seqbist/internal/strategy"
)

// Sweep-specific errors the API surfaces to clients.
var (
	// ErrSweepNotFound reports an unknown sweep ID.
	ErrSweepNotFound = errors.New("service: no such sweep")
	// ErrSweepTooLarge reports a sweep with more members than the
	// configured cap.
	ErrSweepTooLarge = errors.New("service: too many sweep members")
)

// CircuitRef names one member of a sweep: a registry circuit or an inline
// .bench netlist, with an optional caller-supplied T0. Exactly one of
// Circuit and Bench must be set.
type CircuitRef struct {
	// Circuit names a benchmark from the registry (e.g. "s298").
	Circuit string `json:"circuit,omitempty"`
	// Bench is an inline .bench netlist (alternative to Circuit).
	Bench string `json:"bench,omitempty"`
	// T0 optionally supplies the deterministic test sequence for this
	// member as whitespace-separated vectors; empty means ATPG.
	T0 string `json:"t0,omitempty"`
	// Override selectively replaces fields of the sweep's shared
	// generation config for this member (nil = use the shared config
	// unchanged), so one sweep can race strategies or seeds across its
	// members.
	Override *MemberOverride `json:"override,omitempty"`
}

// MemberOverride is a per-member overlay on SweepSpec.Config: every
// non-zero field replaces the shared value for that member only. Zero
// values keep the shared setting, so {"strategy":"anneal"} changes just
// the strategy.
type MemberOverride struct {
	// Strategy names this member's synthesis strategy ("greedy",
	// "restart", "anneal", "genetic", or "race").
	Strategy string `json:"strategy,omitempty"`
	// N overrides the expansion repetition count.
	N int `json:"n,omitempty"`
	// Seed overrides the ATPG / Procedure 2 seed.
	Seed uint64 `json:"seed,omitempty"`
	// ATPGMaxLen overrides the raw generated T0 length cap.
	ATPGMaxLen int `json:"atpg_max_len,omitempty"`
	// MaxOmissionTrials overrides the Procedure 2 omission budget.
	MaxOmissionTrials int `json:"max_omission_trials,omitempty"`
}

// apply overlays o's non-zero fields on g. A nil receiver applies
// nothing, so callers never need to branch on the optional field.
func (o *MemberOverride) apply(g GenConfig) GenConfig {
	if o == nil {
		return g
	}
	if o.Strategy != "" {
		g.Strategy = o.Strategy
	}
	if o.N != 0 {
		g.N = o.N
	}
	if o.Seed != 0 {
		g.Seed = o.Seed
	}
	if o.ATPGMaxLen != 0 {
		g.ATPGMaxLen = o.ATPGMaxLen
	}
	if o.MaxOmissionTrials != 0 {
		g.MaxOmissionTrials = o.MaxOmissionTrials
	}
	return g
}

// SweepSpec is a batch request: the member circuits and one shared
// generation configuration applied to every member.
type SweepSpec struct {
	Circuits []CircuitRef `json:"circuits"`
	Config   GenConfig    `json:"config"`
}

// SweepMemberStatus is the point-in-time state of one sweep member. The
// Result field is populated on the member's done event and in terminal
// sweep snapshots, so streaming clients never need a second fetch.
type SweepMemberStatus struct {
	Index    int     `json:"index"`
	Circuit  string  `json:"circuit"`
	JobID    string  `json:"job_id"`
	State    State   `json:"state"`
	CacheHit bool    `json:"cache_hit"`
	Error    string  `json:"error,omitempty"`
	Result   *Result `json:"result,omitempty"`
}

// SweepSummary aggregates a finished sweep: the per-member tally and the
// Table-3-style rows and markdown rendered through internal/experiments.
// Rows appear in member order and contain only deterministic quantities,
// so the summary of a sweep is bit-for-bit identical to aggregating
// direct Synthesize runs of the same specs.
type SweepSummary struct {
	Total     int                    `json:"total"`
	Done      int                    `json:"done"`
	Failed    int                    `json:"failed"`
	Canceled  int                    `json:"canceled"`
	CacheHits int                    `json:"cache_hits"`
	Rows      []experiments.SweepRow `json:"rows,omitempty"`
	Markdown  string                 `json:"markdown,omitempty"`
}

// SweepStatus is a serializable snapshot of a sweep.
type SweepStatus struct {
	ID      string              `json:"id"`
	State   State               `json:"state"` // running -> done | canceled
	Tenant  string              `json:"tenant,omitempty"`
	Members []SweepMemberStatus `json:"members"`
	Summary *SweepSummary       `json:"summary,omitempty"` // set once terminal

	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// SweepEvent is one line of a sweep's ordered event log (the NDJSON
// stream): the sweep started, a member changed state, or the sweep
// reached a terminal state (carrying the summary).
type SweepEvent struct {
	// Type is "sweep_started", "member_update", or "sweep_done".
	Type    string `json:"type"`
	SweepID string `json:"sweep_id"`
	// Seq numbers events within the sweep from 0, so clients can resume.
	Seq     int                `json:"seq"`
	State   State              `json:"state"`
	Member  *SweepMemberStatus `json:"member,omitempty"`
	Summary *SweepSummary      `json:"summary,omitempty"`
}

// sweep is the internal mutable record. The Service mutex guards every
// field after the immutable header; member terminal hooks and HTTP
// readers synchronize through it (sweep state changes are infrequent
// relative to job work, so one lock is enough).
type sweep struct {
	id     string
	seq    int64     // numeric suffix of id, for counter recovery
	node   string    // owning daemon (cluster mode); appends events + summary
	tenant string    // owning tenant; carried onto every member job
	spec   SweepSpec // original request, persisted so a crashed
	// mid-fan-out sweep can re-submit members that never made it to the
	// queue
	created time.Time

	// specErr records that the persisted spec failed to unmarshal at
	// recovery or adoption: members needing re-submission fail loudly
	// with this error instead of silently running from a zero spec.
	specErr error

	state    State
	canceled bool // cancellation requested
	// repairing suppresses finalization while recovery rebuilds the
	// member states (pending is recomputed incrementally there, so an
	// early member's instant race decision must not see a transient 0).
	repairing bool
	members   []sweepMember
	pending   int // members not yet terminal
	finished  time.Time
	summary   *SweepSummary

	events []SweepEvent
	// wake is closed and replaced whenever an event is appended, so any
	// number of streaming readers can block on the current channel.
	wake chan struct{}
}

type sweepMember struct {
	index  int
	jobID  string
	status Status // last observed job status
	result *Result
	// race, when non-nil, marks a member whose effective strategy is
	// "race": instead of one job the member fanned out as one leg job
	// per concrete strategy (distinct content keys, so a cluster's claim
	// loops spread the legs across nodes), and jobID/status/result above
	// are decided from the legs once the last one lands.
	race *raceState
}

// raceState tracks one racing member's legs. Guarded by the Service
// mutex like the rest of the sweep.
type raceState struct {
	legs    []raceLeg
	pending int  // legs not yet terminal
	running bool // a running member_update was already emitted
	decided bool // the winner was chosen (guards double decision)
}

// newRaceState sets up a race with one pending leg per concrete
// strategy, in portfolio order.
func newRaceState() *raceState {
	names := strategy.Concrete()
	rs := &raceState{legs: make([]raceLeg, len(names)), pending: len(names)}
	for li, name := range names {
		rs.legs[li].strategy = name
	}
	return rs
}

// raceLeg is one concrete strategy's entry in a member race.
type raceLeg struct {
	strategy string
	jobID    string
	status   Status
	result   *Result
}

// memberStatus snapshots one member. Callers hold the Service mutex.
func (sw *sweep) memberStatus(i int, includeResult bool) SweepMemberStatus {
	m := &sw.members[i]
	ms := SweepMemberStatus{
		Index:    i,
		Circuit:  m.status.Circuit,
		JobID:    m.jobID,
		State:    m.status.State,
		CacheHit: m.status.CacheHit,
		Error:    m.status.Error,
	}
	if includeResult {
		ms.Result = m.result
	}
	return ms
}

// snapshot builds a SweepStatus. Callers hold the Service mutex (the
// Metrics path calls it through Service.Metrics).
func (sw *sweep) snapshot() SweepStatus {
	st := SweepStatus{
		ID:        sw.id,
		State:     sw.state,
		Tenant:    sw.tenant,
		CreatedAt: sw.created,
		Summary:   sw.summary,
	}
	terminal := sw.state.Terminal()
	for i := range sw.members {
		st.Members = append(st.Members, sw.memberStatus(i, terminal))
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		st.FinishedAt = &t
	}
	return st
}

// appendEvent appends to the ordered log and wakes streamers. Callers
// hold the Service mutex. The Service-level appendSweepEvent wrapper
// additionally persists the event and the updated sweep record; only
// recovery (which replays already-persisted events) calls this
// directly.
func (sw *sweep) appendEvent(ev SweepEvent) {
	ev.SweepID = sw.id
	ev.Seq = len(sw.events)
	ev.State = sw.state
	sw.events = append(sw.events, ev)
	close(sw.wake)
	sw.wake = make(chan struct{})
}

// appendSweepEvent appends ev to the sweep's log and mirrors the event
// into the store, so a restarted daemon replays the exact NDJSON lines
// a streaming client saw before the crash. The sweep *record* is
// persisted separately, only when durable fields change (creation,
// cancellation, members failing without a job record, finalization) —
// member progress is recovered from the job records instead, so one
// sweep does not rewrite its spec into the log once per event. Callers
// hold the Service mutex.
func (s *Service) appendSweepEvent(sw *sweep, ev SweepEvent) {
	sw.appendEvent(ev)
	s.persistSweepEvent(sw, &sw.events[len(sw.events)-1])
}

// SubmitSweep submits as the anonymous tenant; see SubmitSweepAs.
func (s *Service) SubmitSweep(spec SweepSpec) (SweepStatus, error) {
	return s.SubmitSweepAs(AnonymousTenant, spec)
}

// SubmitSweepAs validates every member of spec up front (so a malformed
// or oversized netlist rejects the whole sweep atomically, before any
// work is queued), enforces the tenant's active-sweeps quota, registers
// the sweep, and fans the members out over the worker pool. Members
// hitting the result cache complete instantly; a member that cannot be
// enqueued because the queue is full is recorded as failed rather than
// failing the sweep. The sweep is admitted as a unit: its members bypass
// the tenant's queued-jobs quota.
func (s *Service) SubmitSweepAs(tenant string, spec SweepSpec) (SweepStatus, error) {
	tenant = tenantName(tenant)
	if s.degraded.Load() {
		// Same edge rejection as Submit: already-accepted sweeps keep
		// running (their writes park), but no new durable obligations.
		return SweepStatus{}, s.degradedErr()
	}
	if len(spec.Circuits) == 0 {
		return SweepStatus{}, fmt.Errorf("invalid sweep: no circuits")
	}
	if len(spec.Circuits) > s.cfg.MaxSweepMembers {
		return SweepStatus{}, fmt.Errorf("%w: %d members, at most %d allowed",
			ErrSweepTooLarge, len(spec.Circuits), s.cfg.MaxSweepMembers)
	}
	// The configurable default is resolved into the spec here, at the
	// submission edge, so the persisted sweep spec (and every member
	// job's content key) is explicit about its strategy.
	if spec.Config.Strategy == "" {
		spec.Config.Strategy = s.cfg.DefaultStrategy
	}
	if err := validateGenConfig(spec.Config); err != nil {
		return SweepStatus{}, fmt.Errorf("invalid sweep: %w", err)
	}

	members := make([]resolvedMember, len(spec.Circuits))
	for i, ref := range spec.Circuits {
		js := JobSpec{Circuit: ref.Circuit, Bench: ref.Bench, T0: ref.T0, Config: ref.Override.apply(spec.Config)}
		if err := ValidateSpec(js); err != nil {
			return SweepStatus{}, fmt.Errorf("invalid sweep: member %d: %w", i, err)
		}
		c, err := resolveCircuit(js, s.cfg.BenchLimits)
		if err != nil {
			return SweepStatus{}, fmt.Errorf("invalid sweep: member %d: %w", i, err)
		}
		t0, err := resolveT0(js, c)
		if err != nil {
			return SweepStatus{}, fmt.Errorf("invalid sweep: member %d: %w", i, err)
		}
		members[i] = resolvedMember{spec: js, c: c, t0: t0}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SweepStatus{}, ErrClosed
	}
	// Quota under the same mutex hold that registers the sweep, so two
	// racing submissions cannot both squeeze under the limit.
	if err := s.admitSweepLocked(tenant, time.Now()); err != nil {
		s.mu.Unlock()
		s.metrics.observeTenantQuotaReject(tenant)
		return SweepStatus{}, err
	}
	s.sweepSeq++
	sw := &sweep{
		id:      s.newSweepID(s.sweepSeq),
		seq:     s.sweepSeq,
		node:    s.cfg.NodeID,
		tenant:  tenant,
		spec:    spec,
		created: time.Now(),
		state:   StateRunning,
		members: make([]sweepMember, len(members)),
		pending: len(members),
		wake:    make(chan struct{}),
	}
	for i := range sw.members {
		sw.members[i] = sweepMember{index: i, status: Status{State: StateQueued, Circuit: members[i].c.Name}}
	}
	s.registerSweep(sw)
	s.persistSweep(sw) // the spec lands before any member job record
	s.appendSweepEvent(sw, SweepEvent{Type: "sweep_started"})
	s.mu.Unlock()
	s.metrics.sweepsStarted.Add(1)

	// Fan out after releasing the mutex: submitJob takes it per member,
	// and cache-hit members fire their terminal hook synchronously.
	for i := range members {
		i := i
		s.mu.Lock()
		if sw.canceled {
			// CancelSweep arrived mid-fan-out: don't queue the rest.
			sw.members[i].status = Status{State: StateCanceled, Circuit: members[i].c.Name, Error: context.Canceled.Error()}
			sw.pending--
			ms := sw.memberStatus(i, false)
			s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
			s.persistSweep(sw) // terminal member without a job record
			s.finalizeSweepLocked(sw)
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		if members[i].spec.Config.Strategy == strategy.Race {
			s.raceFanOut(sw, i, members[i])
			continue
		}
		st, err := s.submitJob(members[i].c, members[i].t0, members[i].spec, sw.tenant, sw.id, i,
			func(running Status) { s.memberRunning(sw, i, running) },
			func(final Status, res *Result) { s.memberTerminal(sw, i, final, res) })
		s.mu.Lock()
		if err != nil {
			// Queue full or service closing: record the member as failed
			// and count it terminal so the sweep still completes.
			sw.members[i].status = Status{State: StateFailed, Circuit: members[i].c.Name, Error: err.Error()}
			sw.pending--
			ms := sw.memberStatus(i, false)
			s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
			s.persistSweep(sw) // terminal member without a job record
			s.finalizeSweepLocked(sw)
			s.mu.Unlock()
			continue
		}
		if sw.members[i].jobID == "" { // a lifecycle hook may have run already
			sw.members[i].jobID = st.ID
		}
		// Announce the queued member only if no lifecycle hook observed it
		// first (hooks record a status with the job ID set); emitting the
		// stale queued snapshot after a running/terminal event would put
		// the stream out of order.
		if sw.members[i].status.ID == "" && !st.State.Terminal() {
			sw.members[i].status = st
			ms := sw.memberStatus(i, false)
			s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
		}
		// CancelSweep may have run between submitJob releasing the mutex
		// and this point: it saw no jobID for this member, so the cancel
		// is ours to issue (Cancel is idempotent if both sides race).
		cancelNow := sw.canceled && !sw.members[i].status.State.Terminal()
		s.mu.Unlock()
		if cancelNow {
			// Idempotent when both sides race; see above.
			_, _ = s.Cancel(st.ID)
		}
	}

	s.mu.Lock()
	snap := sw.snapshot()
	s.mu.Unlock()
	return snap, nil
}

// memberRunning is the job lifecycle hook for a member leaving the
// queue: record and announce the running state so streaming clients see
// queued -> running -> terminal, not a jump. The worker fires it before
// the terminal hook, but a queued-cancel may already have committed a
// terminal status — never regress one.
func (s *Service) memberRunning(sw *sweep, i int, running Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &sw.members[i]
	if m.status.State.Terminal() {
		return
	}
	m.jobID = running.ID
	m.status = running
	ms := sw.memberStatus(i, false)
	s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
}

// memberTerminal is the job hook for sweep members: record the final
// status (and result), emit the member event, and finalize the sweep when
// the last member lands.
func (s *Service) memberTerminal(sw *sweep, i int, final Status, res *Result) {
	if final.State != StateDone {
		res = nil
	}
	s.mu.Lock()
	m := &sw.members[i]
	m.jobID = final.ID
	m.status = final
	m.result = res
	sw.pending--
	ms := sw.memberStatus(i, true)
	s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
	s.finalizeSweepLocked(sw)
	s.mu.Unlock()
}

// raceFanOut fans one racing member out as one leg job per concrete
// strategy. Every leg carries the member's full config with only the
// strategy replaced, so the legs have distinct content keys and land on
// whichever nodes' claim loops win them. Legs are
// plain sweep jobs with member = -1 (they are not members themselves);
// the member's own status is decided in decideRaceLocked once the last
// leg is terminal. Callers must NOT hold the Service mutex.
func (s *Service) raceFanOut(sw *sweep, i int, rm resolvedMember) {
	// pending counts every leg before any is submitted, so a leg that
	// completes synchronously (cache hit) cannot decide the race while
	// later legs are still unsubmitted.
	rs := newRaceState()
	s.mu.Lock()
	sw.members[i].race = rs
	s.mu.Unlock()

	for li := range rs.legs {
		s.mu.Lock()
		if sw.canceled {
			leg := &rs.legs[li]
			if !leg.status.State.Terminal() {
				leg.status = Status{State: StateCanceled, Circuit: rm.c.Name, Error: context.Canceled.Error()}
				rs.pending--
				s.decideRaceLocked(sw, i)
			}
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		legSpec := rm.spec
		legSpec.Config.Strategy = rs.legs[li].strategy
		st, err := s.submitJob(rm.c, rm.t0, legSpec, sw.tenant, sw.id, -1,
			func(running Status) { s.raceLegRunning(sw, i, li, running) },
			func(final Status, res *Result) { s.raceLegTerminal(sw, i, li, final, res) })
		s.mu.Lock()
		leg := &rs.legs[li]
		if err != nil {
			// Queue full or service closing: the leg is out of the race,
			// but the member still completes from the remaining legs.
			if !leg.status.State.Terminal() {
				leg.status = Status{State: StateFailed, Circuit: rm.c.Name, Error: err.Error()}
				rs.pending--
				s.decideRaceLocked(sw, i)
			}
			s.mu.Unlock()
			continue
		}
		if leg.jobID == "" { // a lifecycle hook may have run already
			leg.jobID = st.ID
		}
		if leg.status.ID == "" && !st.State.Terminal() {
			leg.status = st
		}
		// CancelSweep may have raced the submit (it saw no leg jobID),
		// so the cancel is ours to issue.
		cancelNow := sw.canceled && !leg.status.State.Terminal()
		s.mu.Unlock()
		if cancelNow {
			// Idempotent when both sides race; see above.
			_, _ = s.Cancel(st.ID)
		}
	}
}

// raceLegRunning is the job lifecycle hook for a race leg leaving the
// queue. The member is announced running when its first leg runs;
// individual legs are not separate stream events.
func (s *Service) raceLegRunning(sw *sweep, i, li int, running Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &sw.members[i]
	leg := &m.race.legs[li]
	if leg.status.State.Terminal() {
		return
	}
	leg.jobID = running.ID
	leg.status = running
	if m.race.running || m.status.State.Terminal() {
		return
	}
	m.race.running = true
	m.status.State = StateRunning
	ms := sw.memberStatus(i, false)
	s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
}

// raceLegTerminal is the job hook for a race leg landing: record it and
// decide the race when it was the last one out.
func (s *Service) raceLegTerminal(sw *sweep, i, li int, final Status, res *Result) {
	if final.State != StateDone {
		res = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &sw.members[i]
	leg := &m.race.legs[li]
	if leg.status.State.Terminal() {
		return
	}
	leg.jobID = final.ID
	leg.status = final
	leg.result = res
	m.race.pending--
	s.decideRaceLocked(sw, i)
}

// decideRaceLocked settles a racing member once its last leg is
// terminal: the best done leg becomes the member's job, status, and
// result, the winner is tallied in the metrics, and the member's event
// and the sweep's finalization proceed exactly as for a plain member.
// With no done leg the member fails (first failed leg's error) or is
// canceled. Deterministic given the legs' results, so a crash-recovered
// race re-decides identically. Callers hold the Service mutex.
func (s *Service) decideRaceLocked(sw *sweep, i int) {
	m := &sw.members[i]
	rs := m.race
	if rs == nil || rs.pending > 0 || rs.decided {
		return
	}
	rs.decided = true
	var win *raceLeg
	for li := range rs.legs {
		leg := &rs.legs[li]
		if leg.status.State == StateDone && leg.result != nil {
			if win == nil || leg.result.stats().Less(win.result.stats()) {
				win = leg
			}
		}
	}
	if win != nil {
		m.jobID = win.jobID
		m.status = win.status
		m.result = win.result
		s.metrics.observeRaceWin(win.strategy)
	} else {
		// No leg finished. Prefer a failure diagnosis over "canceled":
		// an all-canceled race only happens under sweep cancellation.
		m.status.State = StateCanceled
		for li := range rs.legs {
			if leg := &rs.legs[li]; leg.status.State == StateFailed {
				m.jobID = leg.jobID
				m.status = leg.status
				break
			}
		}
	}
	sw.pending--
	ms := sw.memberStatus(i, true)
	s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
	s.persistSweep(sw) // the decided member references a leg job record
	s.finalizeSweepLocked(sw)
}

// finalizeSweepLocked transitions the sweep to its terminal state once
// every member is terminal: aggregate the summary, emit the final event.
// Callers hold the Service mutex.
func (s *Service) finalizeSweepLocked(sw *sweep) {
	if sw.repairing || sw.pending > 0 || sw.state.Terminal() {
		return
	}
	sum := &SweepSummary{Total: len(sw.members)}
	for i := range sw.members {
		m := &sw.members[i]
		switch m.status.State {
		case StateDone:
			sum.Done++
			if m.status.CacheHit {
				sum.CacheHits++
			}
			if m.result != nil {
				sum.Rows = append(sum.Rows, m.result.SweepRow())
			}
		case StateFailed:
			sum.Failed++
		case StateCanceled:
			sum.Canceled++
		}
	}
	sum.Markdown = experiments.SweepTable(sum.Rows)
	sw.summary = sum
	sw.finished = time.Now()
	if sw.canceled {
		sw.state = StateCanceled
	} else {
		sw.state = StateDone
	}
	s.appendSweepEvent(sw, SweepEvent{Type: "sweep_done", Summary: sum})
	s.persistSweep(sw)
	s.metrics.sweepsFinished.Add(1)
}

// registerSweep records sw and evicts the oldest terminal sweeps beyond
// the retention bound. Callers hold the Service mutex.
func (s *Service) registerSweep(sw *sweep) {
	s.sweeps[sw.id] = sw
	s.sweepOrder = append(s.sweepOrder, sw.id)
	if s.cfg.MaxSweeps < 0 || len(s.sweepOrder) <= s.cfg.MaxSweeps {
		return
	}
	over := len(s.sweepOrder) - s.cfg.MaxSweeps
	kept := s.sweepOrder[:0]
	for _, id := range s.sweepOrder {
		if over > 0 && s.sweeps[id].state.Terminal() {
			delete(s.sweeps, id)
			over--
			s.persistWrite("sweep-delete", id, func(st store.Store) error {
				return st.DeleteSweep(id)
			})
			continue
		}
		kept = append(kept, id)
	}
	s.sweepOrder = kept
}

// Sweep returns a snapshot of the named sweep.
func (s *Service) Sweep(id string) (SweepStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return SweepStatus{}, ErrSweepNotFound
	}
	return sw.snapshot(), nil
}

// Sweeps returns snapshots of every sweep in creation order.
func (s *Service) Sweeps() []SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SweepStatus, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		out = append(out, s.sweeps[id].snapshot())
	}
	return out
}

// CancelSweep requests cancellation of every non-terminal member of the
// named sweep. The sweep reaches the canceled state once every member is
// terminal (running members abort between simulation trials, as for
// single-job cancellation).
func (s *Service) CancelSweep(id string) (SweepStatus, error) {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	if !ok {
		s.mu.Unlock()
		return SweepStatus{}, ErrSweepNotFound
	}
	var cancelIDs []string
	if !sw.state.Terminal() {
		sw.canceled = true
		s.persistSweep(sw) // a recovered sweep must not resurrect canceled members
		for i := range sw.members {
			m := &sw.members[i]
			if m.status.State.Terminal() {
				continue
			}
			if m.race != nil && !m.race.decided {
				// A racing member is canceled leg by leg; the race
				// decides once the last leg lands.
				for li := range m.race.legs {
					if leg := &m.race.legs[li]; leg.jobID != "" && !leg.status.State.Terminal() {
						cancelIDs = append(cancelIDs, leg.jobID)
					}
				}
				continue
			}
			if m.jobID != "" {
				cancelIDs = append(cancelIDs, m.jobID)
			}
		}
	}
	s.mu.Unlock()

	for _, jid := range cancelIDs {
		// Each cancel fires the member hook (queued members synchronously),
		// which drives the sweep toward its terminal state.
		_, _ = s.Cancel(jid)
	}

	s.mu.Lock()
	snap := sw.snapshot()
	s.mu.Unlock()
	return snap, nil
}

// SweepEvents returns the sweep's events from seq onward, a channel that
// is closed when more events arrive, and whether the sweep is terminal
// with every event already returned. The HTTP streaming handler loops:
// drain the batch, flush, then block on wake (or the client context).
func (s *Service) SweepEvents(id string, seq int) (events []SweepEvent, wake <-chan struct{}, done bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil, nil, false, ErrSweepNotFound
	}
	if seq < 0 {
		seq = 0
	}
	if seq < len(sw.events) {
		events = append(events, sw.events[seq:]...)
	}
	return events, sw.wake, sw.state.Terminal(), nil
}
