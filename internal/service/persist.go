package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"seqbist/internal/bench"
	"seqbist/internal/experiments"
	"seqbist/internal/netlist"
	"seqbist/internal/store"
	"seqbist/internal/strategy"
	"seqbist/internal/vectors"
)

// This file is the bridge between the Service's in-memory state and its
// store.Store: every durable transition is mirrored into the store as it
// commits (the persist* helpers, all called under s.mu), and recover
// replays the store's state at startup — rebuilding job and sweep
// records, rehydrating the result cache and sweep event logs, and
// turning work the previous process never finished back into queued
// records. See DESIGN.md §9.

// resolvedMember is one validated sweep member awaiting fan-out.
type resolvedMember struct {
	spec JobSpec
	c    *netlist.Circuit
	t0   vectors.Sequence
}

// Store write failures are not dropped here: every persist helper
// routes through persistWrite (degrade.go), which parks the failed
// write for replay and degrades the node. The in-memory state remains
// authoritative for the running process either way.

// incResultRef notes one more live referent (done job record or cache
// entry) of the stored result body for key. Callers hold s.mu.
func (s *Service) incResultRef(key string) {
	s.resultRefs[key]++
}

// decResultRef drops one referent and deletes the stored body when the
// last one is gone. Callers hold s.mu (the cache's onEvict lands here).
// Only the store's exclusive writer (empty NodeID) deletes: a cluster
// member's local refcount says nothing about *other* daemons'
// referents, so shared result bodies are never deleted online —
// reclaiming a cluster directory is an offline compaction (DESIGN.md
// §10).
func (s *Service) decResultRef(key string) {
	if s.resultRefs[key]--; s.resultRefs[key] <= 0 {
		delete(s.resultRefs, key)
		if s.cfg.NodeID == "" {
			s.persistWrite("result-delete", key, func(st store.Store) error {
				return st.DeleteResult(key)
			})
		}
	}
}

// dropJobRecord mirrors a retention eviction. Only records this daemon
// submitted are deleted — evicting a mirror of a peer's job must not
// destroy the peer's record. Callers hold s.mu.
func (s *Service) dropJobRecord(j *job) {
	if j.node == s.cfg.NodeID {
		id := j.id
		s.persistWrite("job-delete", id, func(st store.Store) error {
			return st.DeleteJob(id)
		})
	}
	if j.state == StateDone {
		s.decResultRef(j.key)
	}
}

// persistJob upserts j's current state. The immutable spec is sent on
// the first successful write only; subsequent upserts leave it empty
// and the store keeps the stored one (mergeJobRecord), so a state
// transition costs bytes proportional to the state, not to an uploaded
// netlist. Callers hold s.mu.
func (s *Service) persistJob(j *job) {
	rec := store.JobRecord{
		ID:        j.id,
		Seq:       j.seq,
		Key:       j.key,
		Circuit:   j.circuit,
		Node:      j.node,
		Tenant:    j.tenant,
		SweepID:   j.sweepID,
		Member:    j.member,
		State:     string(j.state),
		CacheHit:  j.cacheHit,
		Orphaned:  j.orphaned,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if !j.specPersisted {
		spec, err := json.Marshal(j.spec)
		if err != nil {
			// A spec that cannot marshal is a bug, not a disk fault; no
			// probe will cure it, so count it rather than degrade.
			s.noteStoreErr(err)
			return
		}
		rec.Spec = spec
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if s.persistWrite("job", j.id, func(st store.Store) error { return st.PutJob(rec) }) {
		// Latched only on a live write: a parked record carries the spec
		// inside its closure, and a dedup replacement must keep carrying
		// it until some write truly lands.
		j.specPersisted = true
	}
}

// persistSweep upserts sw's record (spec, member snapshot, summary).
// The summary's markdown is not stored: it is a deterministic rendering
// of the rows and is rehydrated through experiments.SweepTable at
// recovery. Callers hold s.mu.
func (s *Service) persistSweep(sw *sweep) {
	rec := store.SweepRecord{
		ID:       sw.id,
		Seq:      sw.seq,
		State:    string(sw.state),
		Canceled: sw.canceled,
		Node:     sw.node,
		Tenant:   sw.tenant,
		Created:  sw.created,
		Finished: sw.finished,
	}
	var err error
	if rec.Spec, err = json.Marshal(sw.spec); err != nil {
		s.noteStoreErr(err)
		return
	}
	for i := range sw.members {
		m := &sw.members[i]
		rec.Members = append(rec.Members, store.SweepMemberRecord{
			JobID:    m.jobID,
			Circuit:  m.status.Circuit,
			State:    string(m.status.State),
			CacheHit: m.status.CacheHit,
			Error:    m.status.Error,
		})
	}
	if sw.summary != nil {
		sum := *sw.summary
		sum.Markdown = ""
		if rec.Summary, err = json.Marshal(&sum); err != nil {
			s.noteStoreErr(err)
			return
		}
	}
	s.persistWrite("sweep", sw.id, func(st store.Store) error { return st.PutSweep(rec) })
}

// persistSweepEvent appends one event line. Member results are stripped
// before storage — the body already lives in the result store under the
// member job's content key — and re-attached at recovery, so replayed
// NDJSON streams carry the same payloads without duplicating megabyte
// results into the log. Callers hold s.mu.
func (s *Service) persistSweepEvent(sw *sweep, ev *SweepEvent) {
	e := *ev
	if e.Member != nil && e.Member.Result != nil {
		m := *e.Member
		m.Result = nil
		e.Member = &m
	}
	data, err := json.Marshal(&e)
	if err != nil {
		s.noteStoreErr(err)
		return
	}
	rec := store.EventRecord{SweepID: sw.id, Seq: ev.Seq, Data: data}
	// Events are append-only, so the park key carries the seq: each
	// event replays exactly once, in order, never deduped away.
	s.persistWrite("event", fmt.Sprintf("%s/%d", sw.id, ev.Seq), func(st store.Store) error {
		return st.AppendEvent(rec)
	})
}

// persistResult stores one result body under its content key. Callers
// hold s.mu.
func (s *Service) persistResult(key string, res *Result) {
	data, err := json.Marshal(res)
	if err != nil {
		s.noteStoreErr(err)
		return
	}
	s.persistWrite("result", key, func(st store.Store) error { return st.PutResult(key, data) })
}

// recover replays the store into the Service. It runs from New before
// any worker or the claim loop starts, so the mutex it takes is
// uncontended; everything it decides (orphan flags, repaired member
// statuses, re-submissions) is persisted back, so a crash during
// recovery replays to the same place. Recovery itself runs nothing: a
// re-enqueued job is a queued record again, which the claim loop leases
// like any submission (the store lets a node re-claim its own lease, so
// a restarted daemon resumes its orphans without waiting out a TTL).
//
// Records are rebuilt by the helpers below, which sweep adoption
// (adopt.go) shares. What recovery adds is its own scope and its own
// orphans: it rebuilds only this node's records, restores the ID
// counters, re-enqueues every own job a crash left unfinished (queued,
// running, or done with its result body gone) — unless its sweep had
// cancellation requested, which cancels it instead — and rehydrates the
// result cache.
func (s *Service) recover() {
	st, err := s.store.Load()
	if err != nil {
		// A failed startup Load is a read fault: nothing was lost and
		// nothing can be parked, so count it and start empty (the claim
		// loop's Changes resync folds the state in once readable).
		s.noteStoreErr(err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rc := s.newRecovery()

	// Sweeps first, so member jobs can link to them. Each daemon
	// rebuilds only what it owns: peers' records stay in the store
	// (their submitters recover them), and claimable work is found by
	// the claim loop, not by recovery.
	for i := range st.Sweeps {
		rec := &st.Sweeps[i]
		if rec.Node != s.cfg.NodeID {
			continue
		}
		s.sweepSeq = max(s.sweepSeq, rec.Seq)
		sw := s.loadSweep(rec, st.Events[rec.ID])
		s.sweeps[sw.id] = sw
		s.sweepOrder = append(s.sweepOrder, sw.id)
		s.metrics.sweepsRecovered.Add(1)
	}

	// Jobs in submission order; orphans collected for re-enqueueing.
	var orphans []*job
	for i := range st.Jobs {
		rec := &st.Jobs[i]
		if rec.Node != s.cfg.NodeID {
			continue // a peer's job: not ours to rebuild
		}
		s.seq = max(s.seq, rec.Seq)
		j, unfinished := rc.loadJob(rec)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		rc.track(j)
		s.metrics.jobsRecovered.Add(1)
		if unfinished {
			orphans = append(orphans, j)
		}
	}

	for _, j := range orphans {
		if sw := s.sweeps[j.sweepID]; sw != nil && sw.canceled {
			// Cancellation was requested before the crash: honor it
			// instead of resurrecting the work.
			j.state = StateCanceled
			j.err = context.Canceled
			if j.finished.IsZero() {
				j.finished = time.Now()
			}
			s.persistJob(j)
			continue
		}
		rc.requeue(j)
	}

	for _, id := range s.sweepOrder {
		rc.settleSweep(s.sweeps[id])
	}

	// Rehydrate the result cache oldest-first, so LRU order ends up
	// freshest-last like the process that crashed.
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateDone && j.result != nil {
			if s.cache.put(j.key, j.result) {
				s.incResultRef(j.key)
			}
		}
	}
}

// recovery is the state of one rebuild pass — a startup recover, or one
// sweep adoption: the memoized result fetches and the rebuilt jobs filed
// by sweep. Its methods are the one implementation of turning stored
// records back into live jobs and sweeps that both passes go through.
type recovery struct {
	s         *Service
	results   map[string]*Result
	sweepJobs map[string][]*job // sweep ID -> its jobs, in load order
}

func (s *Service) newRecovery() *recovery {
	return &recovery{s: s, results: make(map[string]*Result), sweepJobs: make(map[string][]*job)}
}

// result fetches and memoizes one stored result body (nil when absent
// or unreadable).
func (rc *recovery) result(key string) *Result { return rc.s.lookupResult(rc.results, key) }

// track files a sweep job so repairSweep can overlay it onto its member
// (or, for a race leg, re-attach it to its racing member).
func (rc *recovery) track(j *job) {
	if j.sweepID != "" {
		rc.sweepJobs[j.sweepID] = append(rc.sweepJobs[j.sweepID], j)
	}
}

// jobFromRecord builds the local object for a stored job record: a
// recovered job, an adopted sweep's job, or a peer's record this daemon
// claimed, so /v1/jobs shows it and the shared execution machinery has
// a job to drive. It comes back queued. Callers hold s.mu.
func (s *Service) jobFromRecord(rec *store.JobRecord) *job {
	var spec JobSpec
	if len(rec.Spec) > 0 {
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			// The spec is display and coalescing metadata only — every
			// execution path re-resolves from the stored bytes and fails
			// typed — so the record is kept, but the corruption counted.
			s.noteStoreErr(fmt.Errorf("stored job spec corrupt: %v", err))
		}
	}
	return &job{
		id:        rec.ID,
		seq:       rec.Seq,
		key:       rec.Key,
		spec:      spec,
		cfg:       spec.Config.withDefaults(),
		circuit:   rec.Circuit,
		node:      rec.Node,
		tenant:    rec.Tenant,
		sweepID:   rec.SweepID,
		member:    rec.Member,
		orphaned:  rec.Orphaned,
		submitted: rec.Submitted,
		// The stored record carries the spec already.
		specPersisted: true,
		state:         StateQueued,
	}
}

// loadJob rebuilds one stored job record. Terminal records come back
// terminal — a done one with its stored result attached — and
// unfinished reports the rest: a queued or running record, or a done
// one whose result body is gone (it cannot be served, so it must run
// again; content-addressing makes that safe).
func (rc *recovery) loadJob(rec *store.JobRecord) (j *job, unfinished bool) {
	j = rc.s.jobFromRecord(rec)
	j.started, j.finished = rec.Started, rec.Finished
	switch state := State(rec.State); state {
	case StateDone:
		res := rc.result(rec.Key)
		if res == nil {
			return j, true
		}
		j.state = StateDone
		j.cacheHit = rec.CacheHit
		j.result = res
		rc.s.incResultRef(j.key)
	case StateFailed, StateCanceled:
		j.state = state
		if rec.Error != "" {
			j.err = errors.New(rec.Error)
		}
	default:
		return j, true
	}
	return j, false
}

// loadSweep decodes one stored sweep record and its event log. The
// summary's markdown is re-rendered through experiments.SweepTable
// (persistSweep stores the rows only). Callers hold s.mu.
func (s *Service) loadSweep(rec *store.SweepRecord, events []store.EventRecord) *sweep {
	sw := &sweep{
		id:       rec.ID,
		seq:      rec.Seq,
		node:     rec.Node,
		tenant:   rec.Tenant,
		created:  rec.Created,
		finished: rec.Finished,
		state:    State(rec.State),
		canceled: rec.Canceled,
		wake:     make(chan struct{}),
	}
	if len(rec.Spec) > 0 {
		if err := json.Unmarshal(rec.Spec, &sw.spec); err != nil {
			// A stored spec that no longer unmarshals is corruption, not
			// a recoverable condition: remember it so repairSweep fails
			// the affected members loudly (naming the parse error)
			// instead of re-running them from a zero spec.
			sw.specErr = fmt.Errorf("stored sweep spec corrupt: %v", err)
			s.noteStoreErr(sw.specErr)
		}
	}
	if rec.Summary != nil {
		var sum SweepSummary
		if json.Unmarshal(rec.Summary, &sum) == nil {
			sum.Markdown = experiments.SweepTable(sum.Rows)
			sw.summary = &sum
		}
	}
	for mi, m := range rec.Members {
		sw.members = append(sw.members, sweepMember{
			index: mi,
			jobID: m.JobID,
			status: Status{
				ID: m.JobID, State: State(m.State), Circuit: m.Circuit,
				CacheHit: m.CacheHit, Error: m.Error,
			},
		})
	}
	for _, er := range events {
		var ev SweepEvent
		if json.Unmarshal(er.Data, &ev) != nil {
			continue
		}
		sw.events = append(sw.events, ev)
	}
	return sw
}

// requeue makes an unfinished job an orphan: completed at once when a
// stored result already covers its content key, otherwise a queued
// record again for the claim loop.
func (rc *recovery) requeue(j *job) {
	j.orphaned = true
	j.err = nil
	j.started, j.finished = time.Time{}, time.Time{}
	rc.enqueue(j, nil, nil)
}

// enqueue finishes j instantly when a stored result already covers its
// content key (re-running would reproduce it bit-for-bit anyway), and
// otherwise leaves it a durable queued record for the claim loop,
// caching the resolved circuit and T0 on j (when the caller has them)
// so the local claim skips re-resolving the stored spec.
func (rc *recovery) enqueue(j *job, c *netlist.Circuit, t0 vectors.Sequence) {
	if res := rc.result(j.key); res != nil {
		j.state = StateDone
		j.cacheHit = true
		j.result = res
		j.finished = time.Now()
		rc.s.incResultRef(j.key)
		rc.s.persistJob(j)
		return
	}
	j.state = StateQueued
	j.c, j.t0 = c, t0
	rc.s.persistJob(j)
	rc.s.metrics.orphansRequeued.Add(1)
}

// settleSweep finishes rebuilding one sweep: a running one is repaired
// against the rebuilt job records, and the member results
// persistSweepEvent stripped are re-attached to the member snapshots
// and the replayed events. Callers hold s.mu.
func (rc *recovery) settleSweep(sw *sweep) {
	s := rc.s
	if !sw.state.Terminal() {
		s.repairSweep(rc, sw)
	}
	for i := range sw.members {
		m := &sw.members[i]
		if m.status.State == StateDone && m.result == nil {
			if j := s.jobs[m.jobID]; j != nil {
				m.result = j.result
			}
		}
	}
	for ei := range sw.events {
		ev := &sw.events[ei]
		if ev.Type == "member_update" && ev.Member != nil &&
			ev.Member.State == StateDone && ev.Member.Result == nil {
			if j := s.jobs[ev.Member.JobID]; j != nil {
				ev.Member.Result = j.result
			}
		}
	}
}

// repairSweep reconciles one non-terminal sweep with the rebuilt job
// records and queues whatever work is still missing: member statuses
// are overlaid from the fresher job records, lifecycle hooks are
// rewired onto unfinished member jobs, members lost before their first
// enqueue are re-submitted from the persisted sweep spec, and racing
// members re-attach to their leg records. Callers hold s.mu.
func (s *Service) repairSweep(rc *recovery, sw *sweep) {
	memberJob := make(map[int]*job)
	var legs []*job
	for _, j := range rc.sweepJobs[sw.id] {
		if j.member >= 0 {
			memberJob[j.member] = j
		} else {
			legs = append(legs, j)
		}
	}
	// pending is recomputed incrementally below, so an early member that
	// completes instantly (a re-decided race whose legs all hit stored
	// results) must not observe a transient pending of 0 and finalize
	// the sweep before the remaining members are repaired.
	sw.repairing = true
	sw.pending = 0
	dirty := false
	for i := range sw.members {
		m := &sw.members[i]
		j := memberJob[i]
		if j == nil && m.jobID != "" {
			j = s.jobs[m.jobID]
		}
		if j == nil && !m.status.State.Terminal() {
			// No job record at all: the crash hit between sweep
			// registration and this member's enqueue — or the member was
			// racing (legs are plain sweep jobs, the member itself never
			// had a job ID). Re-submit from the persisted spec, unless
			// the sweep's cancellation was requested before the crash.
			rm := sw.lostMember(i)
			switch {
			case rm != nil && rm.spec.Config.Strategy == strategy.Race:
				m.status = Status{State: StateQueued, Circuit: m.status.Circuit}
				sw.pending++
				s.resubmitLostRace(rc, sw, i, rm, &legs)
				dirty = true
				continue
			case sw.canceled:
				m.status.State = StateCanceled
				ms := sw.memberStatus(i, false)
				s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
				dirty = true
				continue
			case rm != nil:
				j = rc.resubmit(sw, i, rm.spec, rm.c, rm.t0)
			}
		}
		if j != nil {
			m.jobID = j.id
			wasTerminal := m.status.State.Terminal()
			m.status = j.status()
			if j.state == StateDone {
				m.result = j.result
			}
			if j.state.Terminal() {
				if !wasTerminal {
					// The job finished but the crash ate the member
					// update: emit it now so streams converge.
					ms := sw.memberStatus(i, true)
					s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
					dirty = true
				}
				continue
			}
			idx := i
			j.onRunning = func(running Status) { s.memberRunning(sw, idx, running) }
			j.onTerminal = func(final Status, res *Result) { s.memberTerminal(sw, idx, final, res) }
			sw.pending++
			continue
		}
		if m.status.State.Terminal() {
			continue // e.g. a queue-full failure recorded without a job
		}
		m.status.State = StateFailed
		if sw.specErr != nil {
			m.status.Error = "recovery: cannot re-submit member: " + sw.specErr.Error()
		} else {
			m.status.Error = "recovery: member lost before enqueue and sweep spec unavailable"
		}
		ms := sw.memberStatus(i, false)
		s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
		dirty = true
	}
	if dirty {
		s.persistSweep(sw)
	}
	sw.repairing = false
	s.finalizeSweepLocked(sw) // no-op while members remain pending
}

// lostMember resolves sweep member i from the persisted sweep spec; nil
// when the spec is corrupt or the member no longer resolves.
func (sw *sweep) lostMember(i int) *resolvedMember {
	if sw.specErr != nil || i >= len(sw.spec.Circuits) {
		return nil
	}
	ref := sw.spec.Circuits[i]
	spec := JobSpec{Circuit: ref.Circuit, Bench: ref.Bench, T0: ref.T0, Config: ref.Override.apply(sw.spec.Config)}
	c, err := resolveCircuit(spec, bench.Limits{})
	if err != nil {
		return nil
	}
	t0, err := resolveT0(spec, c)
	if err != nil {
		return nil
	}
	return &resolvedMember{spec: spec, c: c, t0: t0}
}

// resubmit registers a fresh orphaned job for sweep member member (-1
// for a race leg) of a rebuilt sweep and completes it off a stored
// result or leaves it a queued record. Callers hold s.mu.
func (rc *recovery) resubmit(sw *sweep, member int, spec JobSpec, c *netlist.Circuit, t0 vectors.Sequence) *job {
	s := rc.s
	cfg := spec.Config.withDefaults()
	s.seq++
	j := &job{
		id:        s.newJobID(s.seq),
		seq:       s.seq,
		key:       contentKey(c, spec.T0, cfg),
		spec:      spec,
		cfg:       cfg,
		circuit:   c.Name,
		node:      s.cfg.NodeID,
		tenant:    sw.tenant,
		sweepID:   sw.id,
		member:    member,
		orphaned:  true,
		submitted: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	rc.enqueue(j, c, t0)
	return j
}

// resubmitLostRace rebuilds a racing member: each concrete strategy's
// leg re-attaches to an unused leg record of the sweep (member -1) with
// the leg's content key — the member's config with the strategy
// replaced, recomputed from the persisted sweep spec — and only a leg
// with no such record is minted afresh (resubmit), or, in a canceled
// sweep, ends canceled. Terminal legs are recorded at once; the rest
// get the race hooks. On a fully-finished race this re-runs nothing and
// re-decides the same winner, since the decision is deterministic given
// the legs' results; if every leg is already terminal the decision has
// run on return. Callers hold s.mu and have counted the member in
// sw.pending.
func (s *Service) resubmitLostRace(rc *recovery, sw *sweep, i int, rm *resolvedMember, legs *[]*job) {
	rs := newRaceState()
	sw.members[i].race = rs
	for li := range rs.legs {
		leg := &rs.legs[li]
		spec := rm.spec
		spec.Config.Strategy = leg.strategy
		j := takeLeg(legs, contentKey(rm.c, spec.T0, spec.Config.withDefaults()))
		if j == nil && sw.canceled {
			// A canceled sweep mints no legs; the race decides among
			// the legs already on record.
			leg.status = Status{State: StateCanceled, Circuit: rm.c.Name}
			rs.pending--
			continue
		}
		if j == nil {
			j = rc.resubmit(sw, -1, spec, rm.c, rm.t0)
		}
		leg.jobID = j.id
		leg.status = j.status()
		if j.state.Terminal() {
			// No hook will fire for it, so record the leg directly under
			// the held mutex (the live path records via the hook).
			leg.result = j.result
			rs.pending--
			continue
		}
		j.onRunning = func(running Status) { s.raceLegRunning(sw, i, li, running) }
		j.onTerminal = func(final Status, res *Result) { s.raceLegTerminal(sw, i, li, final, res) }
	}
	s.decideRaceLocked(sw, i)
}

// takeLeg removes and returns the first leg job in legs with content
// key key, or nil, so each leg record re-attaches to at most one leg.
func takeLeg(legs *[]*job, key string) *job {
	for li, j := range *legs {
		if j.key == key {
			*legs = append((*legs)[:li], (*legs)[li+1:]...)
			return j
		}
	}
	return nil
}
