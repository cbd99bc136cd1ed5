package service

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"time"

	"seqbist/internal/bench"
	"seqbist/internal/netlist"
	"seqbist/internal/store"
	"seqbist/internal/vectors"
)

// This file is the service's one dispatch path: the claim loop that
// lets any number of daemons sharing one store — one daemon included,
// a cluster of one — cooperatively drain one queue. Dispatch is
// pull-based: a submission becomes a durable queued record (see
// submitJob), and every member's loop
//
//  1. heartbeats and pulls the *incremental* record delta since its
//     previous tick (store.Changes), folding it into a local mirror so
//     a tick costs O(new records), not O(total state),
//  2. renews the leases of its in-flight runs (detecting theft),
//  3. folds peers' job transitions into the local jobs it owns
//     (the submitter fires sweep hooks off these),
//  4. claims executable records up to its worker capacity — including
//     records whose holder's lease expired, i.e. work stolen from a
//     SIGKILLed peer — and prunes mirror records it is done with, and
//  5. scans (throttled) for sweeps whose owning daemon stopped
//     heartbeating and adopts them (see adopt.go), so a sweep's event
//     log and summary finalize even when its submitter is gone.
//
// Correctness leans on two invariants. Results are content-addressed
// and the pipeline deterministic, so the worst failure mode of lease
// arbitration (two daemons running the same job) wastes cycles but
// cannot produce divergent state; and every store implementation
// arbitrates claims in the operation stream's total order, so all
// members agree on each lease's holder. See DESIGN.md §10 and §12.

// clusterLoop runs until Close; ticks are paced by PollInterval and
// nudged early by local submissions and freed workers.
func (s *Service) clusterLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case <-ticker.C:
		case <-s.clusterWake:
		}
		s.clusterTick(time.Now())
	}
}

// nudgeCluster asks the claim loop to tick ahead of schedule (local
// submissions and freed workers should not wait out a poll interval).
func (s *Service) nudgeCluster() {
	select {
	case s.clusterWake <- struct{}{}:
	default:
	}
}

// clusterTick is one pass of the loop. No explicit Refresh: the Changes
// call below (and every lease operation) folds peers' appends in on its
// own, and hands back only the records that changed since the previous
// tick's cursor.
func (s *Service) clusterTick(now time.Time) {
	s.lastClusterTick.Store(now.UnixNano())
	if hb := s.cfg.LeaseTTL / 3; now.Sub(s.lastHeartbeat) >= max(hb, s.cfg.PollInterval) {
		// The heartbeat carries the degraded flag, so peers steal this
		// node's leases proactively (store.applyClaim) instead of
		// waiting out expiry. Best effort while the disk is down — the
		// append itself may fail, and then peers fall back to lease
		// expiry (the failing renewals below stop extending them).
		s.degradeOn(s.store.Heartbeat(store.NodeRecord{
			ID: s.cfg.NodeID, Started: s.started, Time: now,
			Degraded: s.degraded.Load(),
		}))
		s.lastHeartbeat = now
	}
	s.renewLeases(now)
	if s.degraded.Load() {
		s.runUnclaimable(now)
	}
	delta, cursor, err := s.store.Changes(s.changeCursor)
	if err != nil {
		s.noteStoreErr(err)
		return
	}
	s.changeCursor = cursor
	s.foldDelta(delta)
	claims, err := s.store.Claims()
	if err != nil {
		s.noteStoreErr(err)
		return
	}
	jobs := s.mirrorSnapshot()
	results := make(map[string]*Result) // per-tick result-fetch memo
	s.observeRemote(jobs, results, now)
	if !s.degraded.Load() {
		// A degraded node takes on no new work: it cannot persist the
		// terminal records, and every claim it wins fences a healthy
		// peer out for a lease TTL. Claims are attempted in the fair-share
		// order (schedule.go), not raw Seq order: terminal records first,
		// then running (steal candidates), then the queued backlog under
		// weighted deficit-round-robin by tenant.
		s.claimWork(s.scheduleRecords(jobs), claims, results, s.degradedPeers(), now)
	}
	s.pruneMirror()
	s.adoptStaleSweeps(now)
}

// foldDelta applies one Changes delta to the record mirror. The mirror
// is the claim loop's working set: every record the loop may still have
// to act on, upserted from the deltas and pruned once processed, so the
// per-tick iteration is over the active set rather than the whole
// store. Only the cluster goroutine writes it.
func (s *Service) foldDelta(delta *store.Delta) {
	if delta.Full {
		clear(s.remoteRecs)
		clear(s.remoteSweeps)
	}
	for _, rec := range delta.Jobs {
		s.remoteRecs[rec.ID] = rec
	}
	for _, rec := range delta.Sweeps {
		s.remoteSweeps[rec.ID] = rec
	}
	for _, id := range delta.DeletedJobs {
		delete(s.remoteRecs, id)
	}
	for _, id := range delta.DeletedSweeps {
		delete(s.remoteSweeps, id)
	}
}

// mirrorSnapshot returns the mirrored job records in Seq order (ties by
// ID) — the deterministic order Load used to hand the loop, so claim
// priority across members is unchanged by the incremental rewrite.
func (s *Service) mirrorSnapshot() []store.JobRecord {
	jobs := make([]store.JobRecord, 0, len(s.remoteRecs))
	for _, rec := range s.remoteRecs {
		jobs = append(jobs, rec)
	}
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].Seq != jobs[j].Seq {
			return jobs[i].Seq < jobs[j].Seq
		}
		return jobs[i].ID < jobs[j].ID
	})
	return jobs
}

// pruneMirror drops terminal records the loop is finished with: unknown
// locally (a peer's completed work) or already terminal locally.
// Records under a locally-held lease stay — claimWork's cancel-detach
// path still needs to see a canceled record for a job this daemon is
// executing — and so does a done record whose result body has not
// appeared yet (its local job is still non-terminal then, and
// observeRemote settles it on a later tick).
func (s *Service) pruneMirror() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, rec := range s.remoteRecs {
		if !State(rec.State).Terminal() || s.leases[id] != nil {
			continue
		}
		if j := s.jobs[id]; j == nil || j.state.Terminal() {
			delete(s.remoteRecs, id)
		}
	}
	for id, rec := range s.remoteSweeps {
		if State(rec.State).Terminal() {
			delete(s.remoteSweeps, id)
		}
	}
}

// renewLeases extends the leases of locally-running claims that are
// past half their TTL. A renewal that comes back lost means another
// daemon stole the job after the lease expired (this process stalled):
// the local run is interrupted and its jobs handed back to the poll
// loop, which completes them off the thief's result.
func (s *Service) renewLeases(now time.Time) {
	ttl := s.cfg.LeaseTTL
	type held struct {
		id string
		ex *execution
	}
	var due []held
	s.mu.Lock()
	for id, ex := range s.leases {
		if now.Add(ttl / 2).After(ex.leaseExpiry) {
			due = append(due, held{id, ex})
		}
	}
	s.mu.Unlock()
	for _, h := range due {
		won, err := s.store.RenewLease(h.id, s.cfg.NodeID, ttl)
		if err != nil {
			s.degradeOn(err)
			continue
		}
		s.mu.Lock()
		if won {
			h.ex.leaseExpiry = now.Add(ttl)
			s.mu.Unlock()
			continue
		}
		s.metrics.leasesExpired.Add(1)
		if s.leases[h.id] == h.ex {
			delete(s.leases, h.id)
		}
		h.ex.leaseLost = true
		h.ex.cancel()
		s.mu.Unlock()
	}
}

// releaseLeaseLocked dissolves the lease an execution holds (appended
// after the terminal records, so peers never observe a released job in
// a non-terminal state). A lease already lost to a thief is not
// released — the thief owns it now. Callers hold s.mu.
func (s *Service) releaseLeaseLocked(ex *execution) {
	if ex.leaseID == "" {
		return
	}
	if s.leases[ex.leaseID] == ex {
		delete(s.leases, ex.leaseID)
	}
	if !ex.leaseLost {
		// Not parked on failure: an unreleased lease self-heals by
		// expiry, and replaying an old release could free a lease the
		// node re-won in the meantime.
		s.degradeOn(s.store.ReleaseJob(ex.leaseID, s.cfg.NodeID))
	}
	ex.leaseID = ""
}

// firedHook is one lifecycle callback collected under s.mu and fired
// after it is released (hooks call back into the Service).
type firedHook struct {
	run  func(Status)
	term func(Status, *Result)
	st   Status
	res  *Result
}

func fireHooks(hooks []firedHook) {
	for _, h := range hooks {
		if h.run != nil {
			h.run(h.st)
		}
		if h.term != nil {
			h.term(h.st, h.res)
		}
	}
}

// lookupResult fetches and memoizes one stored result body (nil when
// absent or unreadable).
func (s *Service) lookupResult(memo map[string]*Result, key string) *Result {
	if res, ok := memo[key]; ok {
		return res
	}
	var res *Result
	if data, ok, err := s.store.Result(key); err != nil {
		s.noteStoreErr(err) // read fault: retried next tick
	} else if ok {
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			s.noteStoreErr(err)
		} else {
			res = &r
		}
	}
	memo[key] = res
	return res
}

// observeRemote folds peers' job-record transitions into the local job
// objects this daemon owns (its own submissions, plus mirrors of jobs
// it once claimed): running records mark them running, terminal records
// complete them — firing the sweep lifecycle hooks, which is how a
// sweep finishes when its members execute on other daemons — and a
// queued record whose content key already has a stored result completes
// instantly (cross-daemon result visibility).
func (s *Service) observeRemote(jobs []store.JobRecord, results map[string]*Result, now time.Time) {
	var fired []firedHook
	s.mu.Lock()
	for i := range jobs {
		rec := &jobs[i]
		j, ok := s.jobs[rec.ID]
		if !ok || j.state.Terminal() || j.exec != nil {
			continue // unknown here, already final, or running locally
		}
		switch st := State(rec.State); st {
		case StateRunning:
			if j.state != StateQueued {
				continue
			}
			j.state = StateRunning
			j.started = rec.Started
			if j.onRunning != nil {
				fired = append(fired, firedHook{run: j.onRunning, st: j.status()})
				j.onRunning = nil
			}
		case StateDone:
			res := s.lookupResult(results, rec.Key)
			if res == nil {
				continue // record visible before body: settled next tick
			}
			finished := rec.Finished
			if finished.IsZero() {
				finished = now
			}
			j.cacheHit = rec.CacheHit
			s.completeRemoteLocked(j, res, finished, &fired)
			s.noteDrainLocked(j.tenant, finished)
			s.metrics.jobsDone.Add(1)
			s.metrics.observeTenantDone(j.tenant)
			s.metrics.remoteDone.Add(1)
		case StateFailed, StateCanceled:
			j.state = st
			j.release()
			if rec.Error != "" {
				j.err = errors.New(rec.Error)
			} else if st == StateCanceled {
				j.err = context.Canceled
			}
			j.finished = rec.Finished
			if j.finished.IsZero() {
				j.finished = now
			}
			j.onRunning = nil
			if j.onTerminal != nil {
				fired = append(fired, firedHook{term: j.onTerminal, st: j.status()})
				j.onTerminal = nil
			}
			s.noteDrainLocked(j.tenant, j.finished)
			if st == StateFailed {
				s.metrics.jobsFailed.Add(1)
			} else {
				s.metrics.jobsCanceled.Add(1)
			}
			s.metrics.remoteDone.Add(1)
		case StateQueued:
			// Nobody is running it, but an identical job (same content
			// key) finished somewhere: complete off the stored result.
			res := s.lookupResult(results, rec.Key)
			if res == nil {
				continue
			}
			j.cacheHit = true
			s.completeRemoteLocked(j, res, now, &fired)
			s.persistJob(j) // the record must go terminal too
			s.metrics.jobsDone.Add(1)
		}
	}
	s.mu.Unlock()
	fireHooks(fired)
}

// completeRemoteLocked commits a done state produced elsewhere onto a
// local job object. Callers hold s.mu and append the collected hooks.
func (s *Service) completeRemoteLocked(j *job, res *Result, finished time.Time, fired *[]firedHook) {
	j.state = StateDone
	j.result = res
	j.finished = finished
	j.release()
	s.incResultRef(j.key)
	if s.cache.put(j.key, res) {
		s.incResultRef(j.key)
	}
	j.onRunning = nil
	if j.onTerminal != nil {
		*fired = append(*fired, firedHook{term: j.onTerminal, st: j.status(), res: res})
		j.onTerminal = nil
	}
}

// degradedPeers returns the set of peers currently advertising
// Degraded in their heartbeat — their leases are stealable before
// expiry (claimWork below, mirroring store.applyClaim's arbitration).
func (s *Service) degradedPeers() map[string]bool {
	nodes, err := s.store.Nodes()
	if err != nil {
		s.noteStoreErr(err)
		return nil
	}
	var peers map[string]bool
	for _, n := range nodes {
		if n.Degraded && n.ID != s.cfg.NodeID {
			if peers == nil {
				peers = make(map[string]bool)
			}
			peers[n.ID] = true
		}
	}
	return peers
}

// claimWork leases executable records — queued, running under an
// expired lease (a dead peer's work), or held by a peer that declared
// itself degraded — up to this daemon's capacity and starts them on the
// local worker pool.
func (s *Service) claimWork(jobs []store.JobRecord, claims map[string]store.Claim, results map[string]*Result, degradedPeers map[string]bool, now time.Time) {
	node := s.cfg.NodeID
	for i := range jobs {
		rec := &jobs[i]
		st := State(rec.State)

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if ex := s.leases[rec.ID]; ex != nil && st == StateCanceled {
			// The submitter canceled a job we are executing. Mirror the
			// local Cancel contract: only the canceled job
			// detaches; the run itself is interrupted (Procedure 1
			// polls the hook between trials) only when no coalesced
			// observer remains attached.
			if j := s.jobs[rec.ID]; j != nil && j.exec == ex && !j.state.Terminal() {
				j.state = StateCanceled
				j.err = context.Canceled
				j.finished = now
				j.release()
				j.onRunning, j.onTerminal = nil, nil
				ex.detach(j)
			}
			if len(ex.jobs) == 0 {
				ex.cancel()
			}
		}
		budget := s.cfg.Workers + 1 - len(s.leases)
		j := s.jobs[rec.ID]
		busy := j != nil && (j.exec != nil || j.state.Terminal())
		s.mu.Unlock()

		if st.Terminal() || busy {
			continue
		}
		if budget <= 0 {
			return // claim no more than the workers can absorb
		}
		cl, held := claims[rec.ID]
		if held && cl.Node != node && now.Before(cl.Expires) && !degradedPeers[cl.Node] {
			continue // a live, healthy peer owns it
		}
		stolen := st == StateRunning || (held && cl.Node != node)
		won, err := s.store.ClaimJob(rec.ID, node, s.cfg.LeaseTTL)
		if err != nil {
			s.degradeOn(err)
			continue
		}
		if !won {
			s.metrics.claimsLost.Add(1)
			continue
		}
		s.metrics.claimsWon.Add(1)
		s.metrics.observeTenantClaimWon(rec.Tenant)
		if st == StateQueued {
			s.drr.charge(tenantName(rec.Tenant), s.schedClass)
		}
		if stolen {
			s.metrics.jobsStolen.Add(1)
			s.metrics.leasesExpired.Add(1)
		}
		s.startClaimed(rec, results, now)
	}
}

// startClaimed turns a freshly-won claim into local execution: complete
// instantly when the content key's result is already stored, coalesce
// onto an identical local in-flight run, or resolve the spec and push a
// new execution onto the worker pool.
func (s *Service) startClaimed(rec *store.JobRecord, results map[string]*Result, now time.Time) {
	node := s.cfg.NodeID
	release := func() { s.degradeOn(s.store.ReleaseJob(rec.ID, node)) }

	// Result fast path: executing would reproduce the stored bytes.
	if res := s.lookupResult(results, rec.Key); res != nil {
		var fired []firedHook
		s.mu.Lock()
		j := s.jobs[rec.ID]
		if j == nil {
			j = s.jobFromRecord(rec)
			s.register(j)
		}
		if j.state.Terminal() || j.exec != nil {
			s.mu.Unlock()
			release()
			return
		}
		j.cacheHit = true
		s.completeRemoteLocked(j, res, now, &fired)
		s.persistJob(j)
		s.mu.Unlock()
		release()
		s.metrics.jobsDone.Add(1)
		fireHooks(fired)
		return
	}

	// Resolve the execution inputs: the local job object carries them
	// for this daemon's own submissions; a peer's record is re-resolved
	// from its stored spec (validated by the accepting daemon, so no
	// upload limits here).
	var c *netlist.Circuit
	var t0 vectors.Sequence
	var cfg GenConfig
	s.mu.Lock()
	j := s.jobs[rec.ID]
	if j != nil && j.c != nil {
		c, t0, cfg = j.c, j.t0, j.cfg
	}
	s.mu.Unlock()
	if c == nil {
		var spec JobSpec
		err := json.Unmarshal(rec.Spec, &spec)
		if err == nil {
			cfg = spec.Config.withDefaults()
			if c, err = resolveCircuit(spec, bench.Limits{}); err == nil {
				t0, err = resolveT0(spec, c)
			}
		}
		if err != nil {
			// The spec no longer resolves (corrupt record, vanished
			// registry name): fail the record so the submitter's poll
			// loop surfaces it, and free the lease.
			failed := store.JobRecord{
				ID: rec.ID, Seq: rec.Seq, Key: rec.Key, Circuit: rec.Circuit,
				Node: rec.Node, Tenant: rec.Tenant, SweepID: rec.SweepID, Member: rec.Member,
				State: string(StateFailed), Orphaned: rec.Orphaned,
				Error:     "cluster claim: " + err.Error(),
				Submitted: rec.Submitted, Finished: now,
			}
			s.persistWrite("job", failed.ID, func(st store.Store) error {
				return st.PutJob(failed)
			})
			release()
			return
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		release()
		return
	}
	if j == nil {
		j = s.jobFromRecord(rec)
		s.register(j)
	}
	if j.state.Terminal() || j.exec != nil {
		s.mu.Unlock()
		release()
		return
	}
	if j.c == nil {
		j.c, j.t0, j.cfg = c, t0, cfg
	}
	held := s.launchLocked(j, rec.ID, now)
	s.mu.Unlock()
	if !held {
		release()
	}
}

// launchLocked puts j in flight locally: attached to an identical run
// already in flight (in-flight coalescing — that run's terminal commit
// covers j's record), or as a new execution handed to the workers that
// holds the lease leaseID ("" for a leaseless run). It reports whether
// a new execution took the lease; false means the caller still owns it
// (j coalesced, or the hand-off was full and j stays queued for a less
// loaded member or a later tick). Callers hold s.mu; j carries its
// resolved inputs.
func (s *Service) launchLocked(j *job, leaseID string, now time.Time) bool {
	if other, ok := s.inflight[j.key]; ok {
		j.exec = other
		j.state = StateQueued
		if other.started {
			j.state = StateRunning
			j.started = now
		}
		other.jobs = append(other.jobs, j)
		s.metrics.jobsCoalesced.Add(1)
		return false
	}
	ex := &execution{key: j.key, c: j.c, t0: j.t0, cfg: j.cfg,
		leaseID: leaseID, leaseExpiry: now.Add(s.cfg.LeaseTTL)}
	ex.ctx, ex.cancel = context.WithCancel(s.rootCtx)
	ex.jobs = []*job{j}
	select {
	case s.queue <- ex:
	default:
		ex.cancel()
		return false
	}
	j.exec = ex
	j.state = StateQueued
	s.inflight[j.key] = ex
	if leaseID != "" {
		s.leases[leaseID] = ex
	}
	return true
}

// runUnclaimable keeps a degraded node executing the work it accepted
// but no claim can reach: its own queued jobs whose record never landed
// in the store (the write that degraded the node parked it). No peer
// can see such a job, so it runs without a lease, and its terminal
// record parks like every other write until the probe replays them.
// Called from the cluster goroutine while degraded.
func (s *Service) runUnclaimable(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state != StateQueued || j.exec != nil || j.specPersisted || j.c == nil {
			continue
		}
		if s.closed {
			return
		}
		if !s.launchLocked(j, "", now) && j.exec == nil {
			return // the hand-off is full: next tick
		}
	}
}
