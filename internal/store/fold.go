package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file is the read side of the segmented WAL: folding the total
// order — (generation, manifest byte offset) — into the mirrors. The
// manifest of the fold generation is read forward from foldOff; each
// "mark" frame pulls the acknowledged records out of its writer's
// segment, each control frame (claim, node, epoch) applies directly.
// When a generation's sealed sentinel is observed at EOF the fold
// advances to the next generation; an unsealed EOF is the live
// frontier, where peers may still be appending.

// strictFold reports whether fold errors should be judged with the
// exclusive-open replay policy: torn tails truncated, mid-log damage
// refused. Shared handles are always lenient — truncating files other
// live nodes replay would be destructive, and refusing would wedge the
// whole cluster on one damaged record.
func (d *Disk) strictFold() bool {
	return !d.shared && !d.opened
}

func (d *Disk) dropFoldReader() {
	if d.foldF != nil {
		// Read-only handle: close failure loses nothing.
		_ = d.foldF.Close()
		d.foldF = nil
		d.foldBR = nil
	}
}

// dropGenCursors closes and forgets every segment cursor at or below
// gen: a finished generation's segments are never read again (their
// marks have all been consumed).
func (d *Disk) dropGenCursors(gen int64) {
	for name, cur := range d.segCurs {
		if wf, ok := parseWALFile(name); ok && wf.gen <= gen {
			if cur.f != nil {
				// Read-only cursor handles.
				_ = cur.f.Close()
			}
			delete(d.segCurs, name)
		}
	}
}

// foldLocked folds everything appended since the last fold, advancing
// through sealed generations until the live frontier. Callers hold d.mu.
func (d *Disk) foldLocked() error {
	for {
		advanced, err := d.foldGenPass()
		if err != nil {
			return err
		}
		if !advanced {
			return nil
		}
		// Generation fully consumed and sealed: step to the next. The
		// finished generation's compaction round is over, so its epoch
		// claim no longer binds anyone.
		d.dropFoldReader()
		d.dropGenCursors(d.foldGen)
		d.foldGen++
		d.foldOff = 0
		d.roundClaim = nil
	}
}

// foldGenPass consumes manifest frames of the fold generation from
// foldOff. It returns advanced=true when the generation is sealed and
// fully consumed (the caller steps the fold to the next generation),
// advanced=false when the live frontier was reached.
func (d *Disk) foldGenPass() (bool, error) {
	sealed := false
	tailRetried := false
	for {
		if d.foldF == nil {
			f, err := d.fs.Open(d.manifestPath(d.foldGen))
			if os.IsNotExist(err) {
				if d.genAheadExists(d.foldGen) {
					// Our generation was GC'd under us: this handle
					// slept through at least one full compaction round.
					// Resync from the snapshot.
					return false, d.reloadLocked()
				}
				return false, nil // not yet created: the frontier
			}
			if err != nil {
				return false, fmt.Errorf("store: %w", classify(err))
			}
			if d.foldOff > 0 {
				if _, err := f.Seek(d.foldOff, io.SeekStart); err != nil {
					_ = f.Close()
					return false, fmt.Errorf("store: %w", classify(err))
				}
			}
			d.foldF = f
			d.foldBR = bufio.NewReader(f)
		}
		line, rerr := d.foldBR.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return false, fmt.Errorf("store: reading manifest %d: %w", d.foldGen, rerr)
		}
		if line == "" {
			// Clean EOF. Once the sealed sentinel has been observed, one
			// re-read picks up any frames that landed between our
			// previous read and the seal; the next EOF is then final.
			if sealed {
				return true, nil
			}
			if d.sealedGen(d.foldGen) {
				sealed = true
				continue
			}
			return false, nil // frontier: writers may still append
		}
		if rerr == io.EOF {
			// Incomplete frame (no newline) at the file's end. Drop the
			// reader so the next read re-seeks from foldOff — the bytes
			// may still be landing under a peer's in-flight write.
			d.dropFoldReader()
			if d.sealedGen(d.foldGen) {
				if !tailRetried {
					// The frame may have completed just before the
					// seal; one re-read from foldOff settles it.
					tailRetried = true
					continue
				}
				// Final content: a writer died mid-append. The torn
				// bytes acknowledge nothing — skip past them.
				d.stats.SkippedFrames++
				d.foldOff += int64(len(line))
				return true, nil
			}
			if d.strictFold() {
				if err := d.fs.Truncate(d.manifestPath(d.foldGen), d.foldOff); err != nil {
					return false, fmt.Errorf("store: truncating torn tail: %w", classify(err))
				}
				d.stats.TruncatedTail = true
				return false, nil
			}
			return false, nil
		}
		tailRetried = false
		ent, ok := parseWALLine(line, true)
		if !ok {
			if gent, gok := recoverGluedFrame(line, true); gok {
				d.stats.SkippedFrames++
				d.foldOff += int64(len(line))
				if err := d.applyManifestEntry(gent); err != nil {
					return false, err
				}
				continue
			}
			if d.strictFold() {
				// Distinguish a torn tail from mid-log damage: after a
				// true tear nothing further can parse, and a sealed
				// generation can hold no tear.
				damaged := d.sealedGen(d.foldGen)
				for !damaged {
					rest, lerr := d.foldBR.ReadString('\n')
					if _, ok := parseWALLine(rest, lerr == nil); ok {
						damaged = true
					}
					if lerr != nil {
						break
					}
				}
				if damaged {
					return false, corruptErr(fmt.Errorf("store: corrupt record mid-manifest at byte %d of generation %d (intact records follow — refusing to drop acknowledged state)", d.foldOff, d.foldGen))
				}
				d.dropFoldReader()
				if err := d.fs.Truncate(d.manifestPath(d.foldGen), d.foldOff); err != nil {
					return false, fmt.Errorf("store: truncating torn tail: %w", classify(err))
				}
				d.stats.TruncatedTail = true
				return false, nil
			}
			d.stats.SkippedFrames++
			d.foldOff += int64(len(line))
			continue
		}
		d.foldOff += int64(len(line))
		if err := d.applyManifestEntry(ent); err != nil {
			return false, err
		}
	}
}

// applyManifestEntry dispatches one manifest frame: marks pull their
// writer's segment forward, epoch claims arbitrate the compaction
// round, everything else applies directly at this position in the
// total order.
func (d *Disk) applyManifestEntry(ent walEntry) error {
	d.noteLSN(ent)
	switch ent.Type {
	case "mark":
		return d.foldSegmentLocked(ent.Node, d.foldGen, ent.W)
	case "epoch":
		if d.applyStale(ent) {
			return nil
		}
		var c epochClaim
		if err := json.Unmarshal(ent.Data, &c); err != nil {
			return fmt.Errorf("store: bad epoch claim: %v", err)
		}
		// First claim of the round wins; a later claim supersedes only
		// a winner that has been silent past StaleAfter (it died
		// mid-round).
		if d.roundClaim == nil || c.Time.Sub(d.roundClaim.Time) > d.opts.StaleAfter {
			cc := c
			d.roundClaim = &cc
		}
		return nil
	default:
		if d.applyStale(ent) {
			return nil
		}
		if err := d.applyEntry(ent); err != nil {
			return err
		}
		d.countFolded()
		return nil
	}
}

// foldSegmentLocked consumes node's segment of generation gen up
// through the record with LSN upTo. The mark being in the manifest
// means the record's write completed first (the writer orders them),
// so below a mark anything unreadable beyond a recoverable glued frame
// (a failed append's torn bytes fused to the retry) is genuine damage.
func (d *Disk) foldSegmentLocked(node string, gen, upTo int64) error {
	name := segmentFile(node, gen)
	cur := d.segCurs[name]
	if cur == nil {
		cur = &segCursor{}
		d.segCurs[name] = cur
	}
	if cur.lsn >= upTo {
		return nil // this mark's record predates the snapshot cutoff
	}
	if cur.f == nil {
		f, err := d.fs.Open(d.segmentPath(name))
		if err != nil {
			return fmt.Errorf("store: segment %s: %w", name, classify(err))
		}
		if cur.off > 0 {
			if _, err := f.Seek(cur.off, io.SeekStart); err != nil {
				_ = f.Close()
				return fmt.Errorf("store: %w", classify(err))
			}
		}
		cur.f = f
		cur.br = bufio.NewReader(f)
	}
	for cur.lsn < upTo {
		line, rerr := cur.br.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return fmt.Errorf("store: reading segment %s: %w", name, rerr)
		}
		ent, ok := parseWALLine(line, rerr == nil)
		if !ok {
			// A failed append (ENOSPC, short write) leaves torn bytes the
			// writer's retry then glues its next frame onto — the same
			// shape a dead shared-mode peer leaves in the manifest.
			// Recover the intact frame before judging the segment corrupt.
			if gent, gok := recoverGluedFrame(line, rerr == nil); gok {
				d.stats.SkippedFrames++
				ent = gent
			} else {
				return corruptErr(fmt.Errorf("store: corrupt record in segment %s at byte %d below acknowledged mark (lsn %d)", name, cur.off, upTo))
			}
		}
		cur.off += int64(len(line))
		if ent.LSN > cur.lsn {
			cur.lsn = ent.LSN
		}
		d.noteLSN(ent)
		if d.applyStale(ent) {
			continue
		}
		if err := d.applyEntry(ent); err != nil {
			return err
		}
		d.countFolded()
	}
	return nil
}

func (d *Disk) countFolded() {
	if d.opened {
		d.stats.RecordsRefreshed++
	} else {
		d.stats.RecordsReplayed++
	}
}

// reloadLocked rebuilds the whole view from the current snapshot and
// log — the recovery path for a handle whose fold position was
// invalidated by a compactor's GC. nextLSN is never lowered (LSN
// streams are per-writer and gaps are harmless), so records this
// handle wrote before the reload cannot be reissued under old LSNs.
func (d *Disk) reloadLocked() error {
	if d.reloading {
		return fmt.Errorf("store: fold position lost again during resync (GC race)")
	}
	d.reloading = true
	defer func() { d.reloading = false }()
	d.dropFoldReader()
	for _, cur := range d.segCurs {
		if cur.f != nil {
			// Read-only cursor handles.
			_ = cur.f.Close()
		}
	}
	d.segCurs = make(map[string]*segCursor)
	d.jobs = make(map[string]JobRecord)
	d.sweeps = make(map[string]SweepRecord)
	d.events = make(map[string][]EventRecord)
	d.results = make(map[string][]byte)
	d.claims = make(map[string]Claim)
	d.nodes = make(map[string]NodeRecord)
	d.spillSize = make(map[string]int64)
	d.spillSum = 0
	d.snapBytes = 0
	d.lsns = make(map[string]int64)
	d.snapLSNs = make(map[string]int64)
	d.roundClaim = nil
	d.foldGen = 1
	d.foldOff = 0
	// Consumers holding change cursors must resync: the rebuild may
	// drop records without individual tombstone notes.
	d.changes.invalidate()
	if err := d.replaySnapshot(); err != nil {
		return err
	}
	if err := d.foldLocked(); err != nil {
		return err
	}
	if n := d.lsns[d.opts.NodeID] + 1; n > d.nextLSN {
		d.nextLSN = n
	}
	return nil
}

// truncateOwnTailLocked discards an unmarked tail of this node's own
// current-generation segment at Open: bytes past the fold cursor were
// never marked in the manifest (the crash hit between the segment
// write and the mark), so no replica has applied them — and leaving
// them would glue this writer's next frame onto the torn bytes.
// Unmarked tails in *older* own segments are dead bytes: never read
// (folds stop at the last mark) and removed with their generation.
func (d *Disk) truncateOwnTailLocked() error {
	name := segmentFile(d.opts.NodeID, d.foldGen)
	fi, err := d.fs.Stat(d.segmentPath(name))
	if err != nil {
		return nil
	}
	var off int64
	cur := d.segCurs[name]
	if cur != nil {
		off = cur.off
	}
	if fi.Size() <= off {
		return nil
	}
	if err := d.fs.Truncate(d.segmentPath(name), off); err != nil {
		return fmt.Errorf("store: truncating segment tail: %w", classify(err))
	}
	if cur != nil && cur.f != nil {
		// Read-only cursor handle.
		_ = cur.f.Close()
		cur.f = nil
		cur.br = nil
	}
	d.stats.TruncatedTail = true
	return nil
}
