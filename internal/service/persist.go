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
// Rules, per record:
//
//   - done job + stored result: rebuilt as done, result attached, cache
//     rehydrated. done job whose result body is missing: re-enqueued
//     (content-addressing makes re-running safe).
//   - failed/canceled job: rebuilt terminal.
//   - queued/running job: the crash orphaned it — marked orphaned and
//     re-enqueued (or completed instantly when another job's stored
//     result already covers its content key; or canceled when its
//     sweep had cancellation requested).
//   - terminal sweep: rebuilt with its event log and summary (markdown
//     rehydrated via experiments.SweepTable).
//   - running sweep: member statuses are repaired from the fresher job
//     records, lifecycle hooks are rewired onto re-enqueued member
//     jobs, members that never reached the queue are re-submitted from
//     the persisted sweep spec, and the sweep finalizes normally once
//     the re-run members land.
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
	rc := &recovery{s: s, results: make(map[string]*Result)}

	// Sweeps first, so member jobs can link to them. Each daemon
	// rebuilds only what it owns: peers' records stay in the store
	// (their submitters recover them), and claimable work is found by
	// the claim loop, not by recovery.
	for i := range st.Sweeps {
		rec := &st.Sweeps[i]
		if rec.Node != s.cfg.NodeID {
			continue
		}
		if rec.Seq > s.sweepSeq {
			s.sweepSeq = rec.Seq
		}
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
				// A stored spec that no longer unmarshals is corruption,
				// not a recoverable condition: remember it so repairSweep
				// fails the affected members loudly (naming the parse
				// error) instead of re-running them from a zero spec.
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
		for _, er := range st.Events[rec.ID] {
			var ev SweepEvent
			if json.Unmarshal(er.Data, &ev) != nil {
				continue
			}
			sw.events = append(sw.events, ev)
		}
		s.sweeps[sw.id] = sw
		s.sweepOrder = append(s.sweepOrder, sw.id)
		s.metrics.sweepsRecovered.Add(1)
	}

	// Jobs in submission order; orphans collected for re-enqueueing.
	var orphans []*job
	memberJob := make(map[string]map[int]*job)
	for i := range st.Jobs {
		rec := &st.Jobs[i]
		if rec.Node != s.cfg.NodeID {
			continue // a peer's job: not ours to rebuild
		}
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		var spec JobSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			s.noteStoreErr(err)
			continue
		}
		j := &job{
			id:        rec.ID,
			seq:       rec.Seq,
			key:       rec.Key,
			spec:      spec,
			cfg:       spec.Config.withDefaults(s.cfg.SimParallelism),
			circuit:   rec.Circuit,
			node:      rec.Node,
			tenant:    rec.Tenant,
			sweepID:   rec.SweepID,
			member:    rec.Member,
			orphaned:  rec.Orphaned,
			submitted: rec.Submitted,
			started:   rec.Started,
			finished:  rec.Finished,
			// The replayed record carries the spec already.
			specPersisted: true,
		}
		switch state := State(rec.State); state {
		case StateDone:
			if res := rc.result(rec.Key); res != nil {
				j.state = StateDone
				j.cacheHit = rec.CacheHit
				j.result = res
				s.incResultRef(j.key)
			} else {
				orphans = append(orphans, j)
			}
		case StateFailed, StateCanceled:
			j.state = state
			if rec.Error != "" {
				j.err = errors.New(rec.Error)
			}
		default:
			orphans = append(orphans, j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.sweepID != "" && j.member >= 0 {
			mm := memberJob[j.sweepID]
			if mm == nil {
				mm = make(map[int]*job)
				memberJob[j.sweepID] = mm
			}
			mm[j.member] = j
		}
		s.metrics.jobsRecovered.Add(1)
	}

	// Re-enqueue orphans: each becomes a queued record again, unless a
	// stored result already covers its content key.
	requeue := func(j *job) {
		j.orphaned = true
		j.err = nil
		j.started = time.Time{}
		j.finished = time.Time{}
		if !rc.tryComplete(j) {
			rc.enqueue(j, nil, nil)
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
		requeue(j)
	}

	// Repair the sweeps: overlay the fresher job-record state onto each
	// member, re-attach lifecycle hooks, re-submit members lost before
	// their first enqueue, and re-attach stripped event results.
	for _, id := range s.sweepOrder {
		sw := s.sweeps[id]
		if !sw.state.Terminal() {
			s.repairSweep(rc, sw, memberJob[sw.id])
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

// recovery is the shared state of one recover pass: the memoized result
// fetches. Its enqueue and tryComplete helpers are the single
// implementation of the requeue/instant-complete logic every recovered
// job goes through.
type recovery struct {
	s       *Service
	results map[string]*Result
}

// result fetches and memoizes one stored result body (nil when absent
// or unreadable).
func (rc *recovery) result(key string) *Result { return rc.s.lookupResult(rc.results, key) }

// tryComplete finishes j instantly when a stored result already covers
// its content key (re-running would reproduce it bit-for-bit anyway)
// and reports whether it did.
func (rc *recovery) tryComplete(j *job) bool {
	res := rc.result(j.key)
	if res == nil {
		return false
	}
	j.state = StateDone
	j.cacheHit = true
	j.result = res
	j.finished = time.Now()
	j.onRunning, j.onTerminal = nil, nil
	rc.s.incResultRef(j.key)
	rc.s.persistJob(j)
	return true
}

// enqueue leaves j a durable queued record for the claim loop, caching
// the resolved circuit and T0 on j (when the caller has them) so the
// local claim skips re-resolving the stored spec.
func (rc *recovery) enqueue(j *job, c *netlist.Circuit, t0 vectors.Sequence) {
	j.state = StateQueued
	j.c, j.t0 = c, t0
	rc.s.persistJob(j)
	rc.s.metrics.orphansRequeued.Add(1)
}

// repairSweep reconciles one non-terminal sweep with the recovered job
// records and queues whatever work is still missing. Callers hold s.mu.
func (s *Service) repairSweep(rc *recovery, sw *sweep, memberJob map[int]*job) {
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
		// No job record at all: the crash hit between sweep registration
		// and this member's enqueue — or the member was racing (legs are
		// plain sweep jobs, the member itself never had a job ID).
		// Re-submit from the persisted spec.
		if sw.specErr == nil && i < len(sw.spec.Circuits) {
			memberCfg := sw.spec.Circuits[i].Override.apply(sw.spec.Config)
			if memberCfg.Strategy == strategy.Race {
				m.status = Status{State: StateQueued, Circuit: m.status.Circuit}
				sw.pending++
				if s.resubmitLostRace(rc, sw, i, memberCfg) {
					dirty = true
					continue
				}
				sw.pending--
			} else if j := s.resubmitLostMember(rc, sw, i); j != nil {
				m.jobID = j.id
				m.status = j.status()
				if j.state.Terminal() { // instant completion off a stored result
					if j.state == StateDone {
						m.result = j.result
					}
					ms := sw.memberStatus(i, true)
					s.appendSweepEvent(sw, SweepEvent{Type: "member_update", Member: &ms})
					dirty = true
					continue
				}
				sw.pending++
				continue
			}
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

// resubmitLostMember builds a fresh job for sweep member i from the
// persisted sweep spec and queues it through the shared recovery path
// (instant completion off a stored result, or a queued record for the
// claim loop). Returns nil when the member spec no longer resolves.
// Callers hold s.mu.
func (s *Service) resubmitLostMember(rc *recovery, sw *sweep, i int) *job {
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
	cfg := spec.Config.withDefaults(s.cfg.SimParallelism)
	s.seq++
	idx := i
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
		member:    i,
		orphaned:  true,
		submitted: time.Now(),
		onRunning: func(running Status) { s.memberRunning(sw, idx, running) },
		onTerminal: func(final Status, res *Result) {
			s.memberTerminal(sw, idx, final, res)
		},
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if !rc.tryComplete(j) {
		rc.enqueue(j, c, t0)
	}
	return j
}

// resubmitLostRace rebuilds a racing member at recovery: fresh leg jobs
// (one per concrete strategy, member = -1 like live race legs) are
// created from the persisted sweep spec and queued through the shared
// recovery path. Legs whose content keys already have stored results
// complete instantly — on a fully-finished race this re-runs nothing and
// re-decides the same winner, since the decision is deterministic given
// the legs' results. Reports whether the member spec resolved; the race
// decision (if all legs completed instantly) has already run on return.
// Callers hold s.mu and have counted the member in sw.pending.
func (s *Service) resubmitLostRace(rc *recovery, sw *sweep, i int, memberCfg GenConfig) bool {
	ref := sw.spec.Circuits[i]
	spec := JobSpec{Circuit: ref.Circuit, Bench: ref.Bench, T0: ref.T0, Config: memberCfg}
	c, err := resolveCircuit(spec, bench.Limits{})
	if err != nil {
		return false
	}
	t0, err := resolveT0(spec, c)
	if err != nil {
		return false
	}
	names := strategy.Concrete()
	rs := &raceState{legs: make([]raceLeg, len(names)), pending: len(names)}
	for li, name := range names {
		rs.legs[li].strategy = name
	}
	sw.members[i].race = rs
	for li, name := range names {
		li := li
		legSpec := spec
		legSpec.Config.Strategy = name
		cfg := legSpec.Config.withDefaults(s.cfg.SimParallelism)
		s.seq++
		j := &job{
			id:        s.newJobID(s.seq),
			seq:       s.seq,
			key:       contentKey(c, legSpec.T0, cfg),
			spec:      legSpec,
			cfg:       cfg,
			circuit:   c.Name,
			node:      s.cfg.NodeID,
			tenant:    sw.tenant,
			sweepID:   sw.id,
			member:    -1,
			orphaned:  true,
			submitted: time.Now(),
			onRunning: func(running Status) { s.raceLegRunning(sw, i, li, running) },
			onTerminal: func(final Status, res *Result) {
				s.raceLegTerminal(sw, i, li, final, res)
			},
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		leg := &rs.legs[li]
		leg.jobID = j.id
		if rc.tryComplete(j) {
			// tryComplete cleared the hooks, so record the leg directly
			// under the held mutex (the live path records via the hook).
			leg.status = j.status()
			leg.result = j.result
			rs.pending--
			continue
		}
		rc.enqueue(j, c, t0)
		leg.status = j.status()
	}
	s.decideRaceLocked(sw, i)
	return true
}
