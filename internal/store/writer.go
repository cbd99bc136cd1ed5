package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"time"
)

// This file is the write side of the segmented WAL. Every append runs
// under a *shared* flock on the current generation's manifest: shared
// holders do not serialize against each other (concurrent appends land
// whole via O_APPEND one-write()-per-frame), but a sealing compactor's
// *exclusive* lock waits them all out, so a generation whose sealed
// sentinel exists can have no append still in flight.
//
// A data mutation is two frames: the record itself into this node's
// private segment, then a "mark" frame into the manifest carrying the
// record's LSN. The mark's manifest position is the record's position
// in the total order. Control records (claim, node, epoch) that need
// cluster-wide arbitration order go to the manifest directly.

// frameEntry renders one checksummed WAL line.
func frameEntry(ent walEntry) (string, error) {
	payload, err := json.Marshal(ent)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload), nil
}

// rollManifestLocked points the append target at generation gen,
// creating its manifest if needed. It refuses to resurrect a
// generation a compactor has already retired: if gen's manifest is
// missing while later generations exist, this handle slept through a
// GC and must resync instead (ok=false).
func (d *Disk) rollManifestLocked(gen int64) (bool, error) {
	if _, err := d.fs.Stat(d.manifestPath(gen)); os.IsNotExist(err) && d.genAheadExists(gen) {
		return false, nil
	}
	if d.man != nil {
		// The handle is being replaced; its appends were already synced
		// (or intentionally not, -fsync=false), so the close result
		// carries no information.
		_ = d.man.Close()
		d.man = nil
	}
	f, err := d.fs.OpenFile(d.manifestPath(gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return false, fmt.Errorf("store: %w", classify(err))
	}
	d.man = f
	d.manGen = gen
	return true, nil
}

// withManifestLocked runs fn while holding a shared flock on the
// current (unsealed) generation's manifest, rolling forward past
// sealed generations and resyncing if the handle's generation was
// GC'd under it. fn receives the locked manifest and its generation.
func (d *Disk) withManifestLocked(fn func(man File, gen int64) error) error {
	for {
		if d.man == nil || d.manGen < d.foldGen {
			ok, err := d.rollManifestLocked(d.foldGen)
			if err != nil {
				return err
			}
			if !ok {
				if err := d.reloadLocked(); err != nil {
					return err
				}
				continue
			}
		}
		if err := flockShared(d.man); err != nil {
			return fmt.Errorf("store: manifest lock: %w", classify(err))
		}
		// Re-check under the lock: the generation may have been sealed
		// (roll forward) or even GC'd — its path unlinked — while this
		// handle was away (resync; appending to an unlinked file would
		// silently lose the write).
		if _, err := d.fs.Stat(d.manifestPath(d.manGen)); err != nil {
			_ = funlock(d.man)
			if os.IsNotExist(err) {
				if rerr := d.reloadLocked(); rerr != nil {
					return rerr
				}
				continue
			}
			return fmt.Errorf("store: %w", classify(err))
		}
		if d.sealedGen(d.manGen) {
			next := d.manGen + 1
			_ = funlock(d.man)
			ok, err := d.rollManifestLocked(next)
			if err != nil {
				return err
			}
			if !ok {
				if err := d.reloadLocked(); err != nil {
					return err
				}
			}
			continue
		}
		err := fn(d.man, d.manGen)
		// Unlock failure is unobservable damage-wise: the advisory lock
		// dies with the file description (and the process) regardless.
		_ = funlock(d.man)
		return err
	}
}

// appendData appends one data record to this node's segment plus its
// mark to the manifest. Callers hold d.mu and fold afterwards (settle)
// to apply the record at its arbitrated position.
func (d *Disk) appendData(typ string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var written int64
	err = d.withManifestLocked(func(man File, gen int64) error {
		if d.seg == nil || d.segGen != gen {
			if d.seg != nil {
				// Rolling to a new generation; the old segment's frames
				// are already acknowledged or already failed.
				_ = d.seg.Close()
				d.seg = nil
			}
			f, err := d.fs.OpenFile(d.segmentPath(segmentFile(d.opts.NodeID, gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: %w", classify(err))
			}
			d.seg = f
			d.segGen = gen
		}
		// LSNs are taken inside the locked section: a resync in
		// withManifestLocked may have advanced nextLSN.
		dataLSN := d.nextLSN
		markLSN := dataLSN + 1
		dline, err := frameEntry(walEntry{LSN: dataLSN, Node: d.opts.NodeID, Type: typ, Data: raw})
		if err != nil {
			return err
		}
		if _, err := d.seg.WriteString(dline); err != nil {
			return fmt.Errorf("store: segment append: %w", classify(err))
		}
		if d.opts.Fsync {
			if err := d.seg.Sync(); err != nil {
				return fmt.Errorf("store: segment fsync: %w", classify(err))
			}
		}
		// The record is on disk (and, page-cache-wise, visible) before
		// its mark exists, so a reader that sees the mark can always
		// read the record.
		mline, err := frameEntry(walEntry{LSN: markLSN, Node: d.opts.NodeID, Type: "mark", W: dataLSN})
		if err != nil {
			return err
		}
		if _, err := man.WriteString(mline); err != nil {
			return fmt.Errorf("store: manifest append: %w", classify(err))
		}
		if d.opts.Fsync {
			if err := man.Sync(); err != nil {
				return fmt.Errorf("store: manifest fsync: %w", classify(err))
			}
		}
		written = int64(len(dline) + len(mline))
		d.lsns[d.opts.NodeID] = markLSN
		d.nextLSN = markLSN + 1
		return nil
	})
	if err != nil {
		return err
	}
	d.logBytes += written
	d.stats.RecordsWritten++
	return nil
}

// appendControl appends one control record (claim, node, epoch)
// directly to the manifest. An exclusive handle's lease and heartbeat
// records are not fsynced: no peer arbitrates against them, and a power
// cut that loses the newest of them only costs the restarted writer a
// re-claim of its own work (applyClaim lets a node re-claim its lease).
// The next fsynced append flushes them anyway.
func (d *Disk) appendControl(typ string, data any) error {
	sync := d.opts.Fsync && (d.opts.NodeID != "" || typ == "epoch")
	raw, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var written int64
	err = d.withManifestLocked(func(man File, gen int64) error {
		lsn := d.nextLSN
		line, err := frameEntry(walEntry{LSN: lsn, Node: d.opts.NodeID, Type: typ, Data: raw})
		if err != nil {
			return err
		}
		if _, err := man.WriteString(line); err != nil {
			return fmt.Errorf("store: manifest append: %w", classify(err))
		}
		if sync {
			if err := man.Sync(); err != nil {
				return fmt.Errorf("store: manifest fsync: %w", classify(err))
			}
		}
		written = int64(len(line))
		d.lsns[d.opts.NodeID] = lsn
		d.nextLSN = lsn + 1
		return nil
	})
	if err != nil {
		return err
	}
	d.logBytes += written
	d.stats.RecordsWritten++
	return nil
}

// settle finishes one mutation after its append: fold the log forward
// (applying the new record at its arbitrated position, with any peer
// records that interleaved) and compact if the log has outgrown its
// budget. Callers hold d.mu.
func (d *Disk) settle() error {
	if err := d.foldLocked(); err != nil {
		return err
	}
	return d.maybeCompactLocked()
}

func (d *Disk) maybeCompactLocked() error {
	if d.opts.CompactBytes > 0 && d.logBytes >= d.opts.CompactBytes {
		return d.compactRoundLocked(time.Now())
	}
	return nil
}
