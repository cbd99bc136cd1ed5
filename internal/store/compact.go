package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// This file is the online compaction round (DESIGN.md §12). Any node
// may run one, concurrently with every other node's appends:
//
//  1. Claim: append an "epoch" frame to the current generation g. The
//     first claim in g wins; losers stand down. A winner silent past
//     StaleAfter is presumed dead and may be superseded.
//  2. Seal: create manifest.<g+1>.log (so writers always have a
//     successor to roll to), take the exclusive flock on g's manifest
//     — waiting out every in-flight append — and create the
//     manifest.<g>.sealed sentinel. The sentinel's creation is the
//     atomic commit: from then on no append to g can ever start, and
//     every reader that drains g to EOF after observing the sentinel
//     has seen all of g.
//  3. Fold + snapshot: consume the rest of g, write snapshot.json
//     (carrying the exact fold-resume position), and delete every
//     generation below the lowest fold watermark any live node has
//     heartbeated. Dead nodes don't pin the log: when they return
//     they resync from the snapshot.
//
// Crash safety: the claim record makes a half-done round visible (a
// successor supersedes it after StaleAfter); the sentinel is created
// with O_CREATE (idempotent); snapshot writes are tmp+rename; GC is
// pure deletion of superseded files. Any prefix of a round can be
// re-run or taken over without losing state.

// compactRoundLocked attempts one compaction round. Losing the claim
// (or finding the round already owned by a live peer) is a nil return:
// the work is happening elsewhere. Callers hold d.mu.
func (d *Disk) compactRoundLocked(now time.Time) error {
	if d.compacting || d.closed {
		return nil
	}
	d.compacting = true
	defer func() { d.compacting = false }()
	if err := d.foldLocked(); err != nil {
		return err
	}
	// Claiming can race a peer sealing the very generation we target:
	// our claim then lands in the next generation and is re-evaluated
	// against that round instead.
	var g int64
	for attempt := 0; ; attempt++ {
		g = d.foldGen
		if rc := d.roundClaim; rc != nil && rc.Node != d.opts.NodeID && now.Sub(rc.Time) <= d.opts.StaleAfter {
			return nil // a live peer owns this round
		}
		if err := d.appendControl("epoch", epochClaim{Node: d.opts.NodeID, Time: now}); err != nil {
			return err
		}
		if err := d.foldLocked(); err != nil {
			return err
		}
		if d.foldGen == g {
			break
		}
		if attempt >= 2 {
			// Rounds keep finishing under us — the cluster is
			// compacting fine without this node.
			d.recomputeLogBytesLocked()
			return nil
		}
	}
	if d.roundClaim == nil || d.roundClaim.Node != d.opts.NodeID {
		// Lost the election: the winner's claim preceded ours.
		d.recomputeLogBytesLocked()
		return nil
	}
	// Seal generation g.
	next, err := d.fs.OpenFile(d.manifestPath(g+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", classify(err))
	}
	if d.man == nil || d.manGen != g {
		// The epoch claim above appended to g, so the handle should
		// still target it; if not, a racing sealer won — stand down.
		// (Close results on abandoned/replaced handles carry no
		// information: nothing was written through them here.)
		_ = next.Close()
		d.recomputeLogBytesLocked()
		return nil
	}
	if err := flockExclusive(d.man); err != nil {
		_ = next.Close()
		return fmt.Errorf("store: seal lock: %w", classify(err))
	}
	sf, err := d.fs.OpenFile(d.sealedPath(g), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		_ = funlock(d.man)
		_ = next.Close()
		return fmt.Errorf("store: sealing generation %d: %w", g, classify(err))
	}
	// The sentinel is its O_CREATE: an empty file whose close writes no
	// data, so its close result is informationless.
	_ = sf.Close()
	if d.opts.Fsync {
		// Best effort: if the directory sync is lost to a power cut the
		// sentinel may vanish — then the generation is simply still
		// unsealed and the next round re-seals it; no state is lost.
		if dir, err := d.fs.Open(d.walDir()); err == nil {
			_ = dir.Sync()
			_ = dir.Close()
		}
	}
	// The seal is complete; a failed unlock only parks the epoch
	// until this handle closes, it cannot corrupt it.
	_ = funlock(d.man)
	// Swap the append target to g+1; the segment follows on next write.
	// The old generation's handle saw only already-acknowledged (or
	// already-failed) appends, so its close result is not actionable.
	_ = d.man.Close()
	d.man = next
	d.manGen = g + 1
	if d.seg != nil {
		// Superseded read-only cursor handle.
		_ = d.seg.Close()
		d.seg = nil
	}
	// Consume the rest of g — including appends that raced the seal —
	// then persist and prune.
	if err := d.foldLocked(); err != nil {
		return err
	}
	if err := d.writeSnapshotLocked(); err != nil {
		return err
	}
	d.gcLocked(now)
	d.recomputeLogBytesLocked()
	d.stats.Compactions++
	d.stats.LastCompaction = now
	return nil
}

// writeSnapshotLocked persists the mirrors as snapshot.json, stamped
// with the exact fold position so replay resumes record-for-record
// (applyClaim is order-sensitive: re-applying or skipping claims
// around an approximate cut would diverge the lease table).
func (d *Disk) writeSnapshotLocked() error {
	snap := snapshot{
		Epoch:  d.foldGen,
		Off:    d.foldOff,
		Events: d.events,
	}
	snap.LSNs = make(map[string]int64, len(d.lsns))
	for node, lsn := range d.lsns {
		snap.LSNs[node] = lsn
	}
	if len(d.segCurs) > 0 {
		snap.SegOffs = make(map[string]int64, len(d.segCurs))
		for name, cur := range d.segCurs {
			snap.SegOffs[name] = cur.off
		}
	}
	snap.Claims = copyClaims(d.claims)
	snap.Nodes = nodeList(d.nodes)
	st := stateOf(d.jobs, d.sweeps, d.events, d.results)
	snap.Jobs = st.Jobs
	snap.Sweeps = st.Sweeps
	snap.Results = make(map[string]json.RawMessage)
	for key, body := range d.results {
		if body == nil {
			snap.ResultRefs = append(snap.ResultRefs, key)
		} else {
			snap.Results[key] = body
		}
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeFileAtomic(d.fs, filepath.Join(d.opts.Dir, snapName), data, true); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", classify(err))
	}
	d.snapBytes = int64(len(data))
	d.snapLSNs = make(map[string]int64, len(snap.LSNs))
	for node, lsn := range snap.LSNs {
		d.snapLSNs[node] = lsn
	}
	return nil
}

// gcLocked deletes every wal/ generation below the lowest fold
// watermark any live node has published (a node that never published
// one pins everything until its first heartbeat; a node silent past
// StaleAfter pins nothing).
func (d *Disk) gcLocked(now time.Time) {
	bound := d.foldGen
	for id, n := range d.nodes {
		if id == d.opts.NodeID {
			continue
		}
		if now.Sub(n.Time) > d.opts.StaleAfter {
			continue
		}
		if n.FoldedEpoch < bound {
			bound = n.FoldedEpoch
		}
	}
	for _, wf := range d.scanWALDir() {
		if wf.gen >= bound {
			continue
		}
		// GC is best-effort pure deletion of superseded files: one that
		// survives is retried by every later round.
		_ = d.fs.Remove(d.segmentPath(wf.name))
		if !wf.manifest && !wf.sentinel {
			d.stats.SegmentsDeleted++
		}
		if cur, ok := d.segCurs[wf.name]; ok {
			if cur.f != nil {
				// Read-only cursor handle.
				_ = cur.f.Close()
			}
			delete(d.segCurs, wf.name)
		}
	}
}

// recomputeLogBytesLocked re-derives the compaction trigger's byte
// count from the directory (own appends only accumulate it between
// recomputes, so peers' writes and GC are picked up here).
func (d *Disk) recomputeLogBytesLocked() {
	var sum int64
	for _, wf := range d.scanWALDir() {
		sum += wf.size
	}
	d.logBytes = sum
}
