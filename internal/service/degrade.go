package service

import (
	"errors"
	"fmt"
	"time"

	"seqbist/internal/store"
)

// This file is the service's degradation state machine (DESIGN.md §13).
// The service has two health states:
//
//	healthy   every durable transition is written through to the store
//	          as it commits (the persist* helpers in persist.go).
//	degraded  a store write failed. The node keeps executing what it
//	          already claimed — in-memory state stays authoritative and
//	          finished results are *parked*: held as replayable write
//	          closures — but it stops taking on new obligations: Submit
//	          and SubmitSweep reject with ErrDegraded (HTTP 503 +
//	          Retry-After), the claim loop stops leasing queued records,
//	          and the node's heartbeat carries Degraded so peers steal
//	          its leases proactively (see store.applyClaim).
//
// A background probe (probeLoop) replays the parked records once per
// ProbeInterval; the first fully-drained replay — proof the disk
// accepts writes again — flips the node back to healthy, and live
// writes resume.
//
// While degraded, persist calls do not even attempt the store: they
// park. That is what keeps replay ordered — a live write that happened
// to succeed mid-outage would be clobbered by an older parked record
// replaying after it. Parked records dedup by (kind, id): a job that
// transitions three times while the disk is down replays once, with its
// final state (every Put is an idempotent upsert, so last-write-wins
// per record is exactly the store's own semantics). Event appends carry
// unique ids (sweep/seq) and are never overwritten.

// ErrDegraded reports a submission rejected because the node's local
// persistence is failing; the caller should retry after the probe
// interval (the HTTP layer maps this to 503 + Retry-After).
var ErrDegraded = errors.New("service: node degraded, persistence failing")

// parkedRecord is one durable write held in memory while the disk is
// down: a closure over the fully-built store record (never over live
// service state, so replay needs no locks and races no mutation).
type parkedRecord struct {
	kind  string // "job", "sweep", "event", "result", "job-delete", ...
	id    string
	seq   uint64 // bumped on dedup-replace, so the probe detects staleness
	write func(store.Store) error
}

// parkKey builds the dedup key for one record.
func parkKey(kind, id string) string { return kind + "\x00" + id }

// persistWrite routes one durable write through the health machine:
// healthy nodes write through; a failed write (or an already-degraded
// node) parks the closure for the probe to replay. Reports whether the
// write reached the store live (parked counts as false — persistJob
// uses this to keep re-sending the spec until a write truly lands).
// Callers may hold s.mu; the health state has its own lock (s.mu >
// healthMu ordering).
func (s *Service) persistWrite(kind, id string, write func(store.Store) error) bool {
	if s.degraded.Load() {
		s.parkRecord(kind, id, write)
		return false
	}
	if err := write(s.store); err != nil {
		s.metrics.storeErrors.Add(1)
		s.parkRecord(kind, id, write)
		s.degrade(err)
		return false
	}
	return true
}

// degradeOn handles a failed store write that must not be parked —
// heartbeats and lease operations, which are regenerated or retried by
// the cluster loop itself and would only be stale by replay time. A nil
// error is a no-op, so call sites stay one line.
func (s *Service) degradeOn(err error) {
	if err == nil {
		return
	}
	s.metrics.storeErrors.Add(1)
	s.degrade(err)
}

// noteStoreErr counts a store error that does not indicate a failing
// disk write: read failures (recovery retries them; degrading the write
// path would be acting on the wrong signal) and marshal errors (a
// programming bug no probe will cure).
func (s *Service) noteStoreErr(err error) {
	if err != nil {
		s.metrics.storeErrors.Add(1)
	}
}

// degrade flips the node to degraded and records why. The probe ticker
// is already running (probeLoop starts with the service), so no
// goroutine is spawned here.
func (s *Service) degrade(err error) {
	s.healthMu.Lock()
	s.degradeReason = err
	s.degraded.Store(true)
	s.healthMu.Unlock()
}

// parkRecord holds one write for replay, replacing any parked write for
// the same (kind, id).
func (s *Service) parkRecord(kind, id string, write func(store.Store) error) {
	key := parkKey(kind, id)
	s.healthMu.Lock()
	if i, ok := s.parkedIdx[key]; ok && i >= s.parkedHead {
		s.parked[i].write = write
		s.parked[i].seq++
	} else {
		s.parkedIdx[key] = len(s.parked)
		s.parked = append(s.parked, parkedRecord{kind: kind, id: id, write: write})
	}
	s.healthMu.Unlock()
}

// parkedCount reports the records currently awaiting replay.
func (s *Service) parkedCount() int {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return len(s.parked) - s.parkedHead
}

// degradedErr returns ErrDegraded annotated with the write failure that
// caused the degradation, so a 503 body tells the operator what broke.
func (s *Service) degradedErr() error {
	s.healthMu.Lock()
	reason := s.degradeReason
	s.healthMu.Unlock()
	if reason != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, reason)
	}
	return ErrDegraded
}

// Readiness reports whether the node should receive new work, with a
// human-readable reason when it should not: it is shutting down, its
// persistence is degraded, its backlog is at QueueDepth, or its claim
// loop has stopped ticking. GET /readyz maps false to 503 +
// Retry-After, so a load balancer drains the node while peers — told
// the same thing through the Degraded heartbeat — take over its work.
func (s *Service) Readiness() (bool, string) {
	s.mu.Lock()
	closed, full := s.closed, s.backlogLocked() >= s.cfg.QueueDepth
	s.mu.Unlock()
	if closed {
		return false, "shutting down"
	}
	if s.degraded.Load() {
		return false, s.degradedErr().Error()
	}
	if full {
		return false, "queue full"
	}
	last := time.Unix(0, s.lastClusterTick.Load())
	if stale := time.Since(last); stale > 3*s.cfg.PollInterval {
		return false, fmt.Sprintf("claim loop stalled: last tick %s ago", stale.Round(time.Millisecond))
	}
	return true, "ok"
}

// probeLoop paces recovery probes. It runs for the service's lifetime —
// an idle ticker while healthy — so degradation never has to race Close
// over goroutine startup.
func (s *Service) probeLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case <-ticker.C:
		}
		if s.degraded.Load() {
			s.probeOnce()
		}
	}
}

// probeOnce attempts one recovery pass: replay the parked records in
// park order and flip healthy when the buffer drains. A record that
// still fails aborts the pass (the node stays degraded; the next tick
// retries from the same record). Records parked *during* the pass are
// simply more buffer to drain — healthy is only declared with the
// buffer observed empty under the lock, so no write is ever dropped.
func (s *Service) probeOnce() {
	for {
		s.healthMu.Lock()
		if s.parkedHead >= len(s.parked) {
			if s.parkedHead > 0 || s.verifyRecoveredLocked() {
				s.parked = nil
				s.parkedHead = 0
				s.parkedIdx = make(map[string]int)
				s.degradeReason = nil
				s.degraded.Store(false)
				s.healthMu.Unlock()
				s.nudgeCluster() // resume claiming without waiting a tick
				return
			}
			s.healthMu.Unlock()
			return
		}
		rec := s.parked[s.parkedHead]
		s.healthMu.Unlock()

		if err := rec.write(s.store); err != nil {
			s.healthMu.Lock()
			s.degradeReason = err
			s.healthMu.Unlock()
			return
		}
		s.healthMu.Lock()
		// Pop only if no replacement landed while the write ran; a
		// replaced record replays again with its newer state (an
		// idempotent upsert, so the double write is harmless).
		if s.parkedHead < len(s.parked) && s.parked[s.parkedHead].seq == rec.seq {
			s.parkedHead++
		}
		s.healthMu.Unlock()
	}
}

// verifyRecoveredLocked proves the disk writable when the degradation
// left nothing parked (heartbeat or lease failures only): the node
// re-appends its own heartbeat — still flagged Degraded, since the flip
// has not happened yet — and success is the evidence. Callers hold
// healthMu; the store call is safe under it (healthMu is leaf-ordered
// after s.mu and never held by store callbacks).
func (s *Service) verifyRecoveredLocked() bool {
	return s.store.Heartbeat(store.NodeRecord{
		ID: s.cfg.NodeID, Started: s.started, Time: time.Now(), Degraded: true,
	}) == nil
}
