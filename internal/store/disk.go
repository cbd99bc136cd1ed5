package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Disk store.
type Options struct {
	// Dir is the data directory (created if missing). Layout:
	//
	//	wal/           segmented record log (see segment.go)
	//	snapshot.json  last compaction's full state
	//	results/       spilled result bodies, one <content-key>.json each
	Dir string
	// Fsync, when true (the durable setting), fsyncs segment and
	// manifest after every appended record, so an acknowledged state
	// transition survives an immediate power cut. When false, appends
	// reach the OS page cache only — a process SIGKILL loses nothing,
	// but a machine crash may lose the most recent records.
	Fsync bool
	// SpillBytes is the result-body size at or above which the body is
	// written to results/<key>.json instead of inline into the WAL
	// (default 4096; results for the big ISCAS'89 circuits run to
	// megabytes and would otherwise dominate the log).
	SpillBytes int
	// CompactBytes triggers a compaction round when the wal/ directory
	// grows past this size (default 8 MiB; <0 disables auto-compaction).
	CompactBytes int64
	// NodeID, when set, opens the directory in *shared* mode: several
	// processes (one per NodeID) may hold the same directory open and
	// append concurrently. Each node appends data records to its own
	// segment file and a mark frame to the shared manifest (O_APPEND
	// one-write()-per-frame, so the kernel serializes marks into the
	// total order every node agrees on). Compaction is *online*: any
	// node may claim a round via an epoch record, seal the current
	// generation, fold it into the snapshot and delete generations
	// every live node has acknowledged. Empty (the default) keeps the
	// exclusive single-process behavior.
	NodeID string
	// StaleAfter is how long a node may go without heartbeating before
	// compaction stops waiting for it: a stale node no longer pins old
	// log generations, and its unfinished compaction round may be taken
	// over (default 30s).
	StaleAfter time.Duration
	// FS overrides the filesystem every store operation goes through —
	// the fault-injection seam (vfs.go). Nil uses the real filesystem.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SpillBytes <= 0 {
		o.SpillBytes = 4096
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 8 << 20
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = 30 * time.Second
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// Disk is the durable Store: every mutation is appended to a checksummed
// write-ahead log before it is acknowledged, the full state is rewritten
// as a snapshot when the log grows past Options.CompactBytes, and result
// bodies at or above Options.SpillBytes live in content-named files.
// Open replays snapshot + log; a torn record at the log tail (the
// expected shape of a mid-write crash) is detected by its checksum,
// discarded, and the log is truncated back to the last intact record.
type Disk struct {
	opts   Options
	fs     FS   // all I/O goes through this seam (vfs.go)
	shared bool // multi-writer mode (Options.NodeID set)

	mu sync.Mutex

	// Append targets: man is the current generation's manifest (shared
	// ordering log), seg this node's private data segment of segGen.
	man    File
	manGen int64
	seg    File
	segGen int64

	// Fold frontier: everything in the total order up to (foldGen,
	// foldOff) has been applied to the mirrors. foldF/foldBR cache the
	// open manifest reader; segCurs the per-segment read cursors.
	foldGen int64
	foldOff int64
	foldF   File
	foldBR  *bufio.Reader
	segCurs map[string]*segCursor

	// lsns tracks the highest LSN seen per node (LSN streams are
	// per-writer); snapLSNs is the per-node cutoff the current snapshot
	// covers, so stale log records are skipped at replay. opened flips
	// once Open's replay finishes (it splits the RecordsReplayed /
	// RecordsRefreshed accounting).
	nextLSN  int64
	lsns     map[string]int64
	snapLSNs map[string]int64
	opened   bool
	closed   bool

	reloading  bool
	compacting bool
	// roundClaim is the winning epoch claim of the current generation's
	// compaction round (nil when unclaimed).
	roundClaim *epochClaim

	// logBytes approximates the wal/ footprint for the compaction
	// trigger: incremented by own appends, recomputed from the
	// directory at Open and after every compaction round.
	logBytes int64

	// Mirrors of the durable state, used to serve Load and to write
	// snapshots. A nil results value marks a body spilled to its file.
	jobs    map[string]JobRecord
	sweeps  map[string]SweepRecord
	events  map[string][]EventRecord
	results map[string][]byte
	claims  map[string]Claim
	nodes   map[string]NodeRecord

	// Incremental footprint accounting, so Stats never has to walk the
	// spill directory: spillSize tracks each spilled body's bytes,
	// snapBytes the current snapshot's.
	spillSize map[string]int64
	spillSum  int64
	snapBytes int64

	changes changeLog
	stats   Stats
}

// segCursor is one segment file's read position: off bytes consumed,
// lsn the highest record LSN applied from it.
type segCursor struct {
	off int64
	lsn int64
	f   File
	br  *bufio.Reader
}

const (
	snapName = "snapshot.json"
	resDir   = "results"
)

// walEntry is one WAL line's payload (the bytes the frame checksums).
// Node identifies the writer: LSN streams are per-node, so the pair
// (Node, LSN) is unique. For "mark" frames W is the LSN of the data
// record the mark acknowledges in the writer's segment.
type walEntry struct {
	LSN  int64           `json:"lsn"`
	Node string          `json:"n,omitempty"`
	Type string          `json:"t"`
	W    int64           `json:"w,omitempty"`
	Data json.RawMessage `json:"d,omitempty"`
}

// entry payload shapes for the non-record types.
type (
	delPayload struct {
		ID string `json:"id"`
	}
	resultPayload struct {
		Key  string          `json:"key"`
		Data json.RawMessage `json:"data,omitempty"` // absent when spilled
	}
	// epochClaim is the payload of an "epoch" frame: Node volunteers to
	// run the current generation's compaction round. The first claim in
	// a generation wins; a later claim supersedes it only once the
	// winner has been silent for StaleAfter.
	epochClaim struct {
		Node string    `json:"node"`
		Time time.Time `json:"time"`
	}
)

// snapshot is the on-disk form of snapshot.json: the complete state as
// of the fold position (Epoch, Off). Spilled results appear in
// ResultRefs only; their bodies stay in results/.
type snapshot struct {
	LSNs       map[string]int64           `json:"lsns,omitempty"` // per-node cutoff
	Epoch      int64                      `json:"epoch,omitempty"`
	Off        int64                      `json:"off,omitempty"`      // manifest bytes consumed in Epoch
	SegOffs    map[string]int64           `json:"seg_offs,omitempty"` // segment file -> bytes consumed
	Jobs       []JobRecord                `json:"jobs,omitempty"`
	Sweeps     []SweepRecord              `json:"sweeps,omitempty"`
	Events     map[string][]EventRecord   `json:"events,omitempty"`
	Results    map[string]json.RawMessage `json:"results,omitempty"`
	ResultRefs []string                   `json:"result_refs,omitempty"`
	Claims     map[string]Claim           `json:"claims,omitempty"`
	Nodes      []NodeRecord               `json:"nodes,omitempty"`
}

// Open opens (creating if needed) the data directory and replays its
// snapshot and log. Returns the store ready for use; inspect
// Stats().TruncatedTail to learn whether a torn tail was discarded.
func Open(opts Options) (*Disk, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty data dir")
	}
	if opts.NodeID != "" && !validNodeID(opts.NodeID) {
		return nil, fmt.Errorf("store: invalid node id %q", opts.NodeID)
	}
	if opts.NodeID != "" && !flockSupported {
		// Shared mode's seal protocol needs flock(2); without it the
		// sealed sentinel would prove nothing (flock_other.go).
		return nil, fmt.Errorf("store: shared mode (NodeID) requires flock(2), unsupported on this platform")
	}
	d := &Disk{
		opts:      opts,
		fs:        opts.FS,
		shared:    opts.NodeID != "",
		jobs:      make(map[string]JobRecord),
		sweeps:    make(map[string]SweepRecord),
		events:    make(map[string][]EventRecord),
		results:   make(map[string][]byte),
		claims:    make(map[string]Claim),
		nodes:     make(map[string]NodeRecord),
		spillSize: make(map[string]int64),
		lsns:      make(map[string]int64),
		snapLSNs:  make(map[string]int64),
		segCurs:   make(map[string]*segCursor),
		nextLSN:   1,
		foldGen:   1,
	}
	// Both format checks run before the first write, so a refused
	// directory is left exactly as it was found.
	legacy := filepath.Join(opts.Dir, legacyWAL)
	if _, err := d.fs.Stat(legacy); err == nil {
		return nil, corruptErr(fmt.Errorf("store: %s is a pre-segmentation log, a format no longer read", legacy))
	}
	// The snapshot's records enter the mirrors without change notes, so
	// a zero cursor must resync in full rather than read the ring.
	d.changes.invalidate()
	if err := d.replaySnapshot(); err != nil {
		return nil, err
	}
	for _, sub := range []string{resDir, walDirName} {
		if err := d.fs.MkdirAll(filepath.Join(opts.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", classify(err))
		}
	}
	if !d.shared {
		// Crash leftovers are only safely removable with exclusive
		// access: in shared mode a *.tmp or an unreferenced spill file
		// may be a live peer's write in flight.
		dropTempFiles(d.fs, opts.Dir)
	}
	if err := d.foldLocked(); err != nil {
		return nil, err
	}
	if n := d.lsns[opts.NodeID] + 1; n > d.nextLSN {
		d.nextLSN = n
	}
	if err := d.truncateOwnTailLocked(); err != nil {
		return nil, err
	}
	if !d.shared {
		d.sweepOrphanSpills()
	}
	d.recomputeLogBytesLocked()
	d.opened = true
	return d, nil
}

// sweepOrphanSpills removes result files no replayed record references
// — leftovers of a body written (or deleted from the log) whose WAL
// record did not survive the crash; their puts were never acknowledged,
// so dropping them is safe — and seeds the spill-size accounting for
// the files that stay.
func (d *Disk) sweepOrphanSpills() {
	entries, err := d.fs.ReadDir(filepath.Join(d.opts.Dir, resDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		if body, live := d.results[key]; !live || body != nil {
			// Best-effort cleanup: a leftover that survives is swept
			// again at the next exclusive Open.
			_ = d.fs.Remove(filepath.Join(d.opts.Dir, resDir, e.Name()))
			continue
		}
		if _, ok := d.spillSize[key]; ok {
			continue // already accounted during replay
		}
		if info, err := e.Info(); err == nil {
			d.spillSize[key] = info.Size()
			d.spillSum += info.Size()
		}
	}
}

// dropTempFiles removes *.tmp leftovers from a crash mid-rename (their
// contents were never acknowledged, so dropping them is always safe —
// and best-effort: a survivor is retried at the next Open).
func dropTempFiles(fsys FS, dir string) {
	for _, sub := range []string{dir, filepath.Join(dir, resDir)} {
		entries, err := fsys.ReadDir(sub)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				// Best-effort orphan sweep: a survivor is retried next open.
				_ = fsys.Remove(filepath.Join(sub, e.Name()))
			}
		}
	}
}

// replaySnapshot loads snapshot.json (if present) into the mirrors and
// records its per-node LSN cutoffs and exact fold-resume position; log
// records at or below the cutoff for their node are stale and skipped.
func (d *Disk) replaySnapshot() error {
	data, err := d.fs.ReadFile(filepath.Join(d.opts.Dir, snapName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", classify(err))
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		// Snapshots are written via tmp+rename, so a corrupt one is
		// damage, not a crash artifact — refuse rather than silently
		// drop state.
		return corruptErr(fmt.Errorf("store: corrupt %s: %v", snapName, err))
	}
	if snap.Epoch <= 0 {
		// Every snapshot this code writes is stamped with its fold
		// epoch (>= 1); one without predates the segmented log and has
		// no fold position to resume from.
		return corruptErr(fmt.Errorf("store: %s has no epoch: a pre-segmentation snapshot, a format no longer read", filepath.Join(d.opts.Dir, snapName)))
	}
	d.snapBytes = int64(len(data))
	for _, rec := range snap.Jobs {
		d.jobs[rec.ID] = rec
	}
	for _, rec := range snap.Sweeps {
		d.sweeps[rec.ID] = rec
	}
	for id, log := range snap.Events {
		d.events[id] = log
	}
	for key, body := range snap.Results {
		d.results[key] = body
	}
	for _, key := range snap.ResultRefs {
		d.results[key] = nil
	}
	for id, c := range snap.Claims {
		d.claims[id] = c
	}
	for _, n := range snap.Nodes {
		d.nodes[n.ID] = n
	}
	d.stats.RecordsReplayed += int64(len(snap.Jobs) + len(snap.Sweeps) + len(snap.Results) + len(snap.ResultRefs))
	for _, log := range snap.Events {
		d.stats.RecordsReplayed += int64(len(log))
	}
	for node, lsn := range snap.LSNs {
		d.snapLSNs[node] = lsn
		if lsn > d.lsns[node] {
			d.lsns[node] = lsn
		}
	}
	// Resume folding at the exact position the snapshot was written
	// (applyClaim is order-sensitive, so an approximate resume would
	// diverge) and seed each still-live segment's cursor. The cursor
	// LSN is the node's snapshot cutoff: marks at or below it
	// acknowledge records the snapshot already holds.
	d.foldGen = snap.Epoch
	d.foldOff = snap.Off
	for name, off := range snap.SegOffs {
		wf, ok := parseWALFile(name)
		if !ok || wf.manifest || wf.sentinel {
			continue
		}
		d.segCurs[name] = &segCursor{off: off, lsn: d.snapLSNs[wf.node]}
	}
	return nil
}

// noteLSN tracks the highest LSN seen per writer.
func (d *Disk) noteLSN(ent walEntry) {
	if ent.LSN > d.lsns[ent.Node] {
		d.lsns[ent.Node] = ent.LSN
	}
}

// applyStale reports whether the entry is already covered by the
// loaded snapshot.
func (d *Disk) applyStale(ent walEntry) bool {
	return ent.LSN <= d.snapLSNs[ent.Node]
}

// recoverGluedFrame hunts for a complete frame hidden at the end of an
// unparseable line: when a writer dies mid-append its torn bytes carry
// no newline, so the next writer's intact frame is glued onto them and
// ReadString returns both as one line. The intact frame's payload
// starts with `{"lsn"` and is preceded by its own "crc32hex space"
// prefix; every candidate position is verified by checksum, so torn
// garbage that happens to contain the marker cannot fool it.
func recoverGluedFrame(line string, complete bool) (walEntry, bool) {
	if !complete {
		return walEntry{}, false
	}
	for i := 0; ; {
		k := strings.Index(line[i:], `{"lsn"`)
		if k < 0 {
			return walEntry{}, false
		}
		p := i + k
		if p >= 9 && line[p-1] == ' ' {
			if ent, ok := parseWALLine(line[p-9:], true); ok {
				return ent, true
			}
		}
		i = p + 1
	}
}

// parseWALLine validates one frame: "crc32hex space payload newline".
// complete reports whether the line ended in a newline — a line without
// one is a torn write by definition.
func parseWALLine(line string, complete bool) (walEntry, bool) {
	var ent walEntry
	if !complete || len(line) < 10 || line[8] != ' ' {
		return ent, false
	}
	payload := line[9 : len(line)-1]
	var crc uint32
	if _, err := fmt.Sscanf(line[:8], "%08x", &crc); err != nil {
		return ent, false
	}
	if crc32.ChecksumIEEE([]byte(payload)) != crc {
		return ent, false
	}
	if err := json.Unmarshal([]byte(payload), &ent); err != nil {
		return ent, false
	}
	return ent, true
}

// applyEntry replays one WAL record into the mirrors.
func (d *Disk) applyEntry(ent walEntry) error {
	switch ent.Type {
	case "job":
		var rec JobRecord
		if err := json.Unmarshal(ent.Data, &rec); err != nil {
			return corruptErr(fmt.Errorf("store: bad job record: %v", err))
		}
		d.jobs[rec.ID] = mergeJobRecord(d.jobs[rec.ID], rec)
		d.changes.note(changeJob, rec.ID)
	case "jobdel":
		var p delPayload
		if err := json.Unmarshal(ent.Data, &p); err != nil {
			return corruptErr(fmt.Errorf("store: bad job delete: %v", err))
		}
		delete(d.jobs, p.ID)
		delete(d.claims, p.ID)
		d.changes.note(changeJob, p.ID)
	case "sweep":
		var rec SweepRecord
		if err := json.Unmarshal(ent.Data, &rec); err != nil {
			return corruptErr(fmt.Errorf("store: bad sweep record: %v", err))
		}
		d.sweeps[rec.ID] = rec
		d.changes.note(changeSweep, rec.ID)
	case "sweepdel":
		var p delPayload
		if err := json.Unmarshal(ent.Data, &p); err != nil {
			return corruptErr(fmt.Errorf("store: bad sweep delete: %v", err))
		}
		delete(d.sweeps, p.ID)
		delete(d.events, p.ID)
		d.changes.note(changeSweep, p.ID)
	case "event":
		var rec EventRecord
		if err := json.Unmarshal(ent.Data, &rec); err != nil {
			return corruptErr(fmt.Errorf("store: bad event record: %v", err))
		}
		d.events[rec.SweepID] = placeEvent(d.events[rec.SweepID], rec)
	case "result":
		var p resultPayload
		if err := json.Unmarshal(ent.Data, &p); err != nil {
			return corruptErr(fmt.Errorf("store: bad result record: %v", err))
		}
		if p.Data == nil {
			d.results[p.Key] = nil // spilled; body lives in results/
			// The file may have been written by a peer process (or by a
			// previous run of this one): account for it by size on disk.
			d.forgetSpillAccounting(p.Key)
			if info, err := d.fs.Stat(d.resultPath(p.Key)); err == nil {
				d.spillSize[p.Key] = info.Size()
				d.spillSum += info.Size()
			}
		} else {
			d.results[p.Key] = p.Data
			d.forgetSpillAccounting(p.Key)
		}
	case "resultdel":
		var p resultPayload
		if err := json.Unmarshal(ent.Data, &p); err != nil {
			return corruptErr(fmt.Errorf("store: bad result delete: %v", err))
		}
		// Replay only updates the mirror — spill files reflect the
		// *final* runtime state, so removing one here could destroy the
		// body of a later re-put of the same key. Files left orphaned by
		// a crash are swept once replay has finished (see Open); only
		// the process that issued the delete touches the file.
		delete(d.results, p.Key)
		d.forgetSpillAccounting(p.Key)
	case "claim":
		var rec ClaimRecord
		if err := json.Unmarshal(ent.Data, &rec); err != nil {
			return corruptErr(fmt.Errorf("store: bad claim record: %v", err))
		}
		applyClaim(d.claims, d.jobs, d.nodes, rec)
	case "node":
		var rec NodeRecord
		if err := json.Unmarshal(ent.Data, &rec); err != nil {
			return corruptErr(fmt.Errorf("store: bad node record: %v", err))
		}
		d.nodes[rec.ID] = rec
	default:
		return corruptErr(fmt.Errorf("store: unknown record type %q", ent.Type))
	}
	return nil
}

// forgetSpillAccounting drops key's spill-size accounting without
// touching the file (it may belong to a peer).
func (d *Disk) forgetSpillAccounting(key string) {
	if size, ok := d.spillSize[key]; ok {
		d.spillSum -= size
		delete(d.spillSize, key)
	}
}

// PutJob upserts a job record.
func (d *Disk) PutJob(rec JobRecord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.appendData("job", rec); err != nil {
		return err
	}
	return d.settle()
}

// DeleteJob removes a job record (and any lease on it).
func (d *Disk) DeleteJob(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.appendData("jobdel", delPayload{ID: id}); err != nil {
		return err
	}
	return d.settle()
}

// PutSweep upserts a sweep record.
func (d *Disk) PutSweep(rec SweepRecord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.appendData("sweep", rec); err != nil {
		return err
	}
	return d.settle()
}

// DeleteSweep removes a sweep record and its event log.
func (d *Disk) DeleteSweep(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.appendData("sweepdel", delPayload{ID: id}); err != nil {
		return err
	}
	return d.settle()
}

// AppendEvent appends one sweep event.
func (d *Disk) AppendEvent(ev EventRecord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.appendData("event", ev); err != nil {
		return err
	}
	return d.settle()
}

// PutResult stores one result body: inline in the WAL below SpillBytes,
// otherwise in results/<key>.json (written atomically and synced before
// the referencing WAL record, so a durable ref always resolves).
func (d *Disk) PutResult(key string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(data) < d.opts.SpillBytes {
		_, hadSpill := d.spillSize[key]
		if err := d.appendData("result", resultPayload{Key: key, Data: json.RawMessage(data)}); err != nil {
			return err
		}
		if hadSpill {
			// A re-put that shrank below the threshold. Best-effort: a
			// surviving file is an unreferenced orphan the next
			// exclusive Open sweeps.
			_ = d.fs.Remove(d.resultPath(key))
		}
		return d.settle()
	}
	if err := writeFileAtomic(d.fs, d.resultPath(key), data, d.opts.Fsync); err != nil {
		return fmt.Errorf("store: spilling result: %w", classify(err))
	}
	if err := d.appendData("result", resultPayload{Key: key}); err != nil {
		return err
	}
	return d.settle()
}

// DeleteResult drops one result body (and its spill file, if any).
// Only the deleting process touches the spill file — peers just update
// their mirrors when the record reaches them.
func (d *Disk) DeleteResult(key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, hadSpill := d.spillSize[key]
	if err := d.appendData("resultdel", resultPayload{Key: key}); err != nil {
		return err
	}
	if hadSpill {
		// Best-effort: the delete record is what counts; an orphaned
		// body is swept at the next exclusive Open.
		_ = d.fs.Remove(d.resultPath(key))
	}
	return d.settle()
}

// Result fetches one result body, reading spilled bodies from disk.
func (d *Disk) Result(key string) ([]byte, bool, error) {
	d.mu.Lock()
	body, ok := d.results[key]
	d.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	if body != nil {
		return append([]byte(nil), body...), true, nil
	}
	data, err := d.fs.ReadFile(d.resultPath(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", classify(err))
	}
	return data, true, nil
}

func (d *Disk) resultPath(key string) string {
	return filepath.Join(d.opts.Dir, resDir, cleanKey(key)+".json")
}

// cleanKey defends the filesystem against a hostile key; content keys
// are hex SHA-256 in practice, which passes through unchanged.
func cleanKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, key)
}

// Load snapshots the current mirrored state (pulling in peers' latest
// appends first).
func (d *Disk) Load() (*State, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.foldLocked(); err != nil {
		return nil, err
	}
	return stateOf(d.jobs, d.sweeps, d.events, d.results), nil
}

// Refresh folds records appended by peer processes into this handle's
// view.
func (d *Disk) Refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.foldLocked()
}

// Changes folds the latest records and returns what changed since
// cursor (0 or a stale cursor yields a full resync), plus the cursor
// for the next call.
func (d *Disk) Changes(cursor uint64) (*Delta, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.foldLocked(); err != nil {
		return nil, 0, err
	}
	refs, ok := d.changes.window(cursor)
	if !ok {
		return fullDelta(d.jobs, d.sweeps), d.changes.ver, nil
	}
	return buildDelta(refs, d.jobs, d.sweeps), d.changes.ver, nil
}

// ClaimJob attempts to acquire the execution lease on a job: the claim
// record is appended to the manifest, the log is folded forward, and
// the claim won iff this node holds the lease once every record up to
// and including its own has been arbitrated in manifest order. Exactly
// one of any set of concurrent claimants wins.
func (d *Disk) ClaimJob(jobID, nodeID string, ttl time.Duration) (bool, error) {
	return d.claim(jobID, nodeID, ttl)
}

// RenewLease extends a held lease; false reports that it was lost to
// another node (renewals and claims share one record type and rule).
func (d *Disk) RenewLease(jobID, nodeID string, ttl time.Duration) (bool, error) {
	return d.claim(jobID, nodeID, ttl)
}

func (d *Disk) claim(jobID, nodeID string, ttl time.Duration) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	rec := ClaimRecord{JobID: jobID, Node: nodeID, Time: now, Expires: now.Add(ttl)}
	if err := d.appendControl("claim", rec); err != nil {
		return false, err
	}
	if err := d.foldLocked(); err != nil {
		return false, err
	}
	// The fold arbitrated every record up to and including ours in
	// manifest order: we won iff we ended up the holder. (A thief whose
	// record already follows ours shows up here too — then we yield
	// immediately instead of discovering the loss at renewal.)
	cur, ok := d.claims[jobID]
	return ok && cur.Node == nodeID, d.maybeCompactLocked()
}

// ReleaseJob dissolves a held lease (no-op for a non-holder).
func (d *Disk) ReleaseJob(jobID, nodeID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := ClaimRecord{JobID: jobID, Node: nodeID, Time: time.Now(), Released: true}
	if err := d.appendControl("claim", rec); err != nil {
		return err
	}
	return d.settle()
}

// Heartbeat upserts this node's identity record, stamping the fold
// watermark peers' compactors use to decide which generations this
// node still needs.
func (d *Disk) Heartbeat(rec NodeRecord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec.FoldedEpoch = d.foldGen
	rec.FoldedOff = d.foldOff
	if err := d.appendControl("node", rec); err != nil {
		return err
	}
	return d.settle()
}

// Claims snapshots the evaluated lease table.
func (d *Disk) Claims() (map[string]Claim, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.foldLocked(); err != nil {
		return nil, err
	}
	return copyClaims(d.claims), nil
}

// Nodes snapshots the known node records in ID order.
func (d *Disk) Nodes() ([]NodeRecord, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.foldLocked(); err != nil {
		return nil, err
	}
	return nodeList(d.nodes), nil
}

// Compact runs one online compaction round: claim the current
// generation's epoch, seal it, fold it into the snapshot and delete
// the generations every live node has folded. A pure representation
// change — Load is identical before and after, only the replay cost
// and on-disk footprint shrink. Safe (and a no-op returning nil) when
// another live node owns the round.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactRoundLocked(time.Now())
}

// Stats reports the store's counters and on-disk footprint.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	var walBytes, manBytes, segs int64
	for _, wf := range d.scanWALDir() {
		if wf.sentinel {
			continue
		}
		walBytes += wf.size
		if wf.manifest {
			manBytes += wf.size
		} else {
			segs++
		}
	}
	st.Epoch = d.foldGen
	st.SegmentsLive = segs
	st.ManifestBytes = manBytes
	st.BytesOnDisk = walBytes + d.snapBytes + d.spillSum
	return st
}

// Close compacts (exclusive handles only — dropping the replay cost of
// the accumulated log) and releases every file handle. Shared handles
// skip the compaction — peers may still be appending — and just flush.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	var err error
	if !d.shared {
		if cerr := d.compactRoundLocked(time.Now()); err == nil {
			err = cerr
		}
	}
	d.closed = true
	for _, f := range []File{d.seg, d.man} {
		if f == nil {
			continue
		}
		if serr := f.Sync(); err == nil {
			err = classify(serr)
		}
		if cerr := f.Close(); err == nil {
			err = classify(cerr)
		}
	}
	d.seg, d.man = nil, nil
	d.dropFoldReader()
	for _, cur := range d.segCurs {
		if cur.f != nil {
			// Read-only cursors: close failure loses nothing.
			_ = cur.f.Close()
			cur.f = nil
			cur.br = nil
		}
	}
	return err
}

// writeFileAtomic writes data to path via a same-directory tmp file and
// rename, optionally fsyncing the file (and always the directory on
// sync) so the rename itself is durable. The tmp name carries the pid
// so concurrent processes spilling the same content key (same bytes —
// keys are content hashes) cannot interleave within one tmp file.
// tmpSeq disambiguates concurrent writeFileAtomic calls within one
// process (several handles on one directory can compact concurrently;
// pid alone would make them fight over the same tmp name).
var tmpSeq atomic.Int64

func writeFileAtomic(fsys FS, path string, data []byte, sync bool) error {
	// Failed tmp files are removed best-effort: they were never
	// acknowledged, and a survivor is cleaned by dropTempFiles.
	tmp := fmt.Sprintf("%s.%d.%d.tmp", path, os.Getpid(), tmpSeq.Add(1))
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return classify(err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return classify(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			_ = fsys.Remove(tmp)
			return classify(err)
		}
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return classify(err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return classify(err)
	}
	if sync {
		// The rename is durable only once the directory is synced; a
		// sync failure must surface, not be swallowed — callers treat
		// the whole write as failed and retry it.
		dir, err := fsys.Open(filepath.Dir(path))
		if err != nil {
			return classify(err)
		}
		if err := dir.Sync(); err != nil {
			_ = dir.Close()
			return classify(err)
		}
		if err := dir.Close(); err != nil {
			return classify(err)
		}
	}
	return nil
}
