package store

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the naming and layout layer of the segmented WAL
// (DESIGN.md §12). The data directory holds, next to snapshot.json and
// results/, one wal/ directory with three kinds of files:
//
//	wal/manifest.<epoch>.log     the shared ordering log of generation
//	                             <epoch>: claim, node, epoch-claim and
//	                             mark frames, appended by every writer
//	                             through O_APPEND under a shared flock
//	wal/manifest.<epoch>.sealed  empty sentinel: generation <epoch> is
//	                             sealed — no append to it can still be
//	                             in flight, and writers roll forward
//	wal/<node>.<epoch>.log       one node's private data segment for
//	                             generation <epoch> ("_" for an
//	                             exclusive, un-named writer): job,
//	                             sweep, event and result frames,
//	                             written by exactly one process
//
// The total order every replica agrees on is (generation, byte offset
// in that generation's manifest): a data record's position is its mark
// frame's position. Epochs are rendered %08d so names sort like the
// numbers do.

const (
	walDirName  = "wal"
	legacyWAL   = "wal.log" // pre-segmentation single log: Open refuses it
	manifestTag = "manifest"
	sealedExt   = "sealed"
	logExt      = "log"
)

// nodeFile is the filename component for a writer: exclusive (empty
// NodeID) writers use "_". Open rejects the node IDs that would collide
// with reserved names ("manifest", "_").
func nodeFile(nodeID string) string {
	if nodeID == "" {
		return "_"
	}
	return nodeID
}

// segNode is the inverse of nodeFile.
func segNode(file string) string {
	if file == "_" {
		return ""
	}
	return file
}

// validNodeID reports whether id is usable as a segment-file prefix:
// the daemon's charset (letters, digits, '-', '_'), not "manifest"
// (manifest files), not "_" (the exclusive writer's segment name).
func validNodeID(id string) bool {
	if id == manifestTag || id == "_" {
		return false
	}
	for _, r := range id {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return false
		}
	}
	return true
}

func (d *Disk) walDir() string {
	return filepath.Join(d.opts.Dir, walDirName)
}

func (d *Disk) manifestPath(gen int64) string {
	return filepath.Join(d.walDir(), fmt.Sprintf("%s.%08d.%s", manifestTag, gen, logExt))
}

func (d *Disk) sealedPath(gen int64) string {
	return filepath.Join(d.walDir(), fmt.Sprintf("%s.%08d.%s", manifestTag, gen, sealedExt))
}

func segmentFile(nodeID string, gen int64) string {
	return fmt.Sprintf("%s.%08d.%s", nodeFile(nodeID), gen, logExt)
}

func (d *Disk) segmentPath(name string) string {
	return filepath.Join(d.walDir(), name)
}

// sealedGen reports whether generation gen's sealed sentinel exists.
// Observing it guarantees no append to gen is in flight (the sealer
// created it under an exclusive flock on the generation file).
func (d *Disk) sealedGen(gen int64) bool {
	_, err := d.fs.Stat(d.sealedPath(gen))
	return err == nil
}

// walFile is one parsed wal/ directory entry.
type walFile struct {
	name     string
	node     string // segment owner ("" exclusive); empty-and-manifest otherwise
	gen      int64
	manifest bool // manifest.<gen>.log
	sentinel bool // manifest.<gen>.sealed
	size     int64
}

// parseWALFile decodes one wal/ entry name; ok is false for foreign
// files (tmp leftovers, user debris) which every scan leaves alone.
func parseWALFile(name string) (walFile, bool) {
	parts := strings.Split(name, ".")
	if len(parts) != 3 {
		return walFile{}, false
	}
	gen, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || gen <= 0 {
		return walFile{}, false
	}
	wf := walFile{name: name, gen: gen}
	switch {
	case parts[0] == manifestTag && parts[2] == logExt:
		wf.manifest = true
	case parts[0] == manifestTag && parts[2] == sealedExt:
		wf.sentinel = true
	case parts[2] == logExt:
		wf.node = segNode(parts[0])
	default:
		return walFile{}, false
	}
	return wf, true
}

// scanWALDir lists the parsed contents of wal/. A read failure yields
// an empty listing — callers treat that like a missing directory (no
// generations visible), which only ever defers work (GC, roll-forward)
// to a later scan; it never fabricates state.
func (d *Disk) scanWALDir() []walFile {
	entries, err := d.fs.ReadDir(d.walDir())
	if err != nil {
		return nil
	}
	out := make([]walFile, 0, len(entries))
	for _, e := range entries {
		wf, ok := parseWALFile(e.Name())
		if !ok {
			continue
		}
		if info, err := e.Info(); err == nil {
			wf.size = info.Size()
		}
		out = append(out, wf)
	}
	return out
}

// genAheadExists reports whether any manifest generation beyond gen is
// on disk — the signature of this handle having fallen behind a
// compactor's GC (its own generation deleted under it).
func (d *Disk) genAheadExists(gen int64) bool {
	for _, wf := range d.scanWALDir() {
		if wf.manifest && wf.gen > gen {
			return true
		}
	}
	return false
}
