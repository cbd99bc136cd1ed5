package service

import (
	"sort"
	"time"

	"seqbist/internal/store"
)

// This file is sweep adoption: the cluster mechanism that keeps a
// sweep's event log and summary finalizing after its owning daemon
// dies. Member *jobs* already survive owner death — they are durable
// records any member's claim loop leases — but the sweep object itself
// (lifecycle hooks, event appends, summary aggregation) lived only in
// the submitter's memory. Adoption moves that ownership: when a sweep's
// owner has stopped heartbeating, a live member wins a lease-arbitrated
// race, rebuilds the sweep from the store through the same record
// loaders crash recovery uses for the owner's own sweeps (persist.go),
// commits itself as the new owner, and drives the members to a
// finalized summary. See DESIGN.md §12.

// adoptStaleSweeps scans the sweep mirror — throttled to about one scan
// per lease TTL, since owner death is detected on heartbeat timescales
// anyway — for non-terminal sweeps whose owner looks dead, and adopts
// each. Called from the cluster goroutine.
func (s *Service) adoptStaleSweeps(now time.Time) {
	if s.degraded.Load() {
		return // adoption takes on ownership this node cannot persist
	}
	if now.Sub(s.lastAdoptScan) < s.cfg.LeaseTTL {
		return
	}
	s.lastAdoptScan = now
	stale := 3 * s.cfg.LeaseTTL
	var cands []store.SweepRecord
	for _, rec := range s.remoteSweeps {
		if rec.Node == s.cfg.NodeID || State(rec.State).Terminal() {
			continue
		}
		// A sweep younger than the staleness window cannot have a
		// provably-dead owner: the owner's most recent heartbeat may
		// simply predate the submission.
		if now.Sub(rec.Created) < stale {
			continue
		}
		cands = append(cands, rec)
	}
	if len(cands) == 0 {
		return
	}
	nodes, err := s.store.Nodes()
	if err != nil {
		s.noteStoreErr(err)
		return
	}
	fresh := make(map[string]bool)
	for _, n := range nodes {
		if now.Sub(n.Time) < stale {
			fresh[n.ID] = true
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Seq != cands[j].Seq {
			return cands[i].Seq < cands[j].Seq
		}
		return cands[i].ID < cands[j].ID
	})
	for _, rec := range cands {
		// An owner that never heartbeat at all is as dead as a lapsed
		// one (it cannot be running a claim loop).
		if fresh[rec.Node] {
			continue
		}
		s.adoptSweep(rec)
	}
}

// adoptSweep takes over one orphaned sweep. Concurrent adopters are
// arbitrated through the existing lease layer under a synthetic claim
// ID — no new store primitive — and the commit point is the PutSweep
// naming this daemon as owner: a crash before it leaves the original
// record intact for the next adopter, a crash after it is ordinary
// owner death handled by this daemon's own recovery (or re-adoption).
func (s *Service) adoptSweep(rec store.SweepRecord) {
	claimID := "sweep-adopt/" + rec.ID
	won, err := s.store.ClaimJob(claimID, s.cfg.NodeID, 3*s.cfg.LeaseTTL)
	if err != nil {
		s.degradeOn(err)
		return
	}
	if !won {
		return // another member is adopting it right now
	}
	defer func() { s.degradeOn(s.store.ReleaseJob(claimID, s.cfg.NodeID)) }()

	// Adoption needs the sweep's event log and member job records, which
	// the poll deltas deliberately omit: the one full Load outside
	// startup happens here, on the rare owner-death path.
	st, err := s.store.Load()
	if err != nil {
		s.noteStoreErr(err) // read fault: re-adoption retries next scan
		return
	}
	// Re-read the record from the Load view: it is fresher than the
	// mirror, and the sweep may have finished — or been adopted and
	// re-owned — between the scan and winning the claim.
	var cur *store.SweepRecord
	for i := range st.Sweeps {
		if st.Sweeps[i].ID == rec.ID {
			cur = &st.Sweeps[i]
			break
		}
	}
	if cur == nil || cur.Node != rec.Node || State(cur.State).Terminal() {
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.sweeps[cur.ID] != nil {
		return
	}
	rc := s.newRecovery()
	sw := s.loadSweep(cur, st.Events[cur.ID])
	sw.node = s.cfg.NodeID // ours from here on; tenant attribution stays

	// Materialize local mirrors of the sweep's jobs — whichever node
	// submitted or ran them — so repairSweep can overlay their fresher
	// state and re-attach hooks, and so observeRemote (which only
	// touches locally-known jobs) drives those hooks as peers finish the
	// remaining work. Unlike recovery, adoption leaves queued and
	// running records to the claim loop.
	for i := range st.Jobs {
		jr := &st.Jobs[i]
		if jr.SweepID != cur.ID {
			continue
		}
		j := s.jobs[jr.ID]
		if j == nil {
			var unfinished bool
			j, unfinished = rc.loadJob(jr)
			if unfinished && State(jr.State).Terminal() {
				// A done record whose result body died with the owner:
				// no claim loop re-runs a terminal record, so re-enqueue
				// it as recovery would.
				rc.requeue(j)
			}
			s.register(j)
		}
		rc.track(j)
	}

	s.registerSweep(sw)
	rc.settleSweep(sw)
	s.persistSweep(sw) // commit: the durable record now names this owner
	s.metrics.sweepsAdopted.Add(1)
}
