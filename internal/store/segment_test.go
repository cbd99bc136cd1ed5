package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file tests the segmented WAL's online machinery: compaction
// rounds racing live writers, crashes inside a compaction round
// (mid-manifest-swap, mid-seal, stale epoch claims), generation GC,
// incremental refresh, and the refusal of pre-segmentation directories.

// openSharedOpts opens a shared handle with explicit compaction
// settings (auto-compaction off unless the test asks for it).
func openSharedOpts(t *testing.T, dir, node string, opts Options) *Disk {
	t.Helper()
	opts.Dir = dir
	opts.NodeID = node
	if opts.CompactBytes == 0 {
		opts.CompactBytes = -1
	}
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// curGenOnDisk parses the newest manifest generation in dir.
func curGenOnDisk(t *testing.T, dir string) int64 {
	t.Helper()
	wf, ok := parseWALFile(filepath.Base(curManifest(t, dir)))
	if !ok {
		t.Fatalf("unparseable manifest name %q", curManifest(t, dir))
	}
	return wf.gen
}

// TestSharedOnlineCompactionEquivalence interleaves online compaction
// rounds into a randomized multi-writer history: three shared handles
// deal a random operation stream between them while random handles run
// Compact() mid-stream, every handle crashes (no Close) at a random
// point, and the replayed state must still equal the memory oracle —
// records, events, results, and lease holders alike.
func TestSharedOnlineCompactionEquivalence(t *testing.T) {
	seeds := []int64{21, 22, 23, 24}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := genOps(rng, 120)
			crash := 1 + rng.Intn(len(ops))

			dir := t.TempDir()
			handles := []*Disk{
				openSharedOpts(t, dir, "n1", Options{}),
				openSharedOpts(t, dir, "n2", Options{}),
				openSharedOpts(t, dir, "n3", Options{}),
			}
			oracle := NewMemory()
			for _, o := range ops[:crash] {
				h := handles[rng.Intn(len(handles))]
				apply(t, h, o, false)
				apply(t, oracle, o, false)
				// An online round from a random handle, racing nothing
				// here but the other handles' staleness (their next
				// append lands in the new generation).
				if rng.Intn(12) == 0 {
					if err := handles[rng.Intn(len(handles))].Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			var compactions int64
			for _, h := range handles {
				compactions += h.Stats().Compactions
			}
			for _, h := range handles {
				h.crash()
			}

			for _, node := range []string{"n4", ""} {
				d, err := Open(Options{Dir: dir, NodeID: node, CompactBytes: -1})
				if err != nil {
					t.Fatalf("reopen as %q: %v", node, err)
				}
				got, err := d.Load()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := oracle.Load()
				if !statesEqual(want, got) {
					t.Fatalf("crash at op %d (%d compactions), reopen as %q: replay != oracle:\nwant %s\ngot  %s",
						crash, compactions, node, dumpState(want), dumpState(got))
				}
				gotClaims, err := d.Claims()
				if err != nil {
					t.Fatal(err)
				}
				wantClaims, _ := oracle.Claims()
				if !reflect.DeepEqual(claimHolders(gotClaims), claimHolders(wantClaims)) {
					t.Fatalf("crash at op %d, reopen as %q: lease holders != oracle:\nwant %v\ngot  %v",
						crash, node, claimHolders(wantClaims), claimHolders(gotClaims))
				}
				d.crash()
			}
		})
	}
}

// TestSharedConcurrentOnlineCompaction hammers one directory from three
// writer goroutines while each handle also runs explicit compaction
// rounds mid-stream (run under -race in CI). Every record must survive
// into a converged view with no skipped frames, and at least one round
// must have completed (per generation, exactly one claimant wins — and
// the winner is a live handle here, so it finishes its round).
func TestSharedConcurrentOnlineCompaction(t *testing.T) {
	dir := t.TempDir()
	const perNode = 30
	nodes := []string{"n1", "n2", "n3"}
	handles := make([]*Disk, len(nodes))
	for i, n := range nodes {
		handles[i] = openSharedOpts(t, dir, n, Options{})
	}
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *Disk) {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				rec := jobRec(int64(i*1000+k), "queued")
				rec.ID = fmt.Sprintf("job-%s-%06d", nodes[i], k)
				if err := h.PutJob(rec); err != nil {
					t.Errorf("node %s put %d: %v", nodes[i], k, err)
					return
				}
				if err := h.Heartbeat(NodeRecord{ID: nodes[i], Time: time.Now()}); err != nil {
					t.Errorf("node %s heartbeat: %v", nodes[i], err)
					return
				}
				if k%10 == 9 {
					if err := h.Compact(); err != nil {
						t.Errorf("node %s compact: %v", nodes[i], err)
						return
					}
				}
			}
		}(i, h)
	}
	wg.Wait()

	var prev *State
	var compactions int64
	for i, h := range handles {
		if err := h.Refresh(); err != nil {
			t.Fatal(err)
		}
		got, err := h.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Jobs) != len(nodes)*perNode {
			t.Fatalf("handle %d sees %d jobs, want %d", i, len(got.Jobs), len(nodes)*perNode)
		}
		if prev != nil && !statesEqual(prev, got) {
			t.Fatalf("handles %d and %d disagree after refresh", i-1, i)
		}
		prev = got
		st := h.Stats()
		if st.SkippedFrames != 0 {
			t.Fatalf("handle %d skipped %d frames under concurrent compaction", i, st.SkippedFrames)
		}
		compactions += st.Compactions
	}
	if compactions == 0 {
		t.Fatal("no compaction round completed across the cluster")
	}
	for _, h := range handles {
		h.crash()
	}
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, _ := d.Load()
	if len(got.Jobs) != len(nodes)*perNode {
		t.Fatalf("replay lost records: %d jobs, want %d", len(got.Jobs), len(nodes)*perNode)
	}
}

// TestCompactorCrashMidRound pins the two crash points inside a
// compaction round that leave half-committed on-disk layouts behind:
// after the successor manifest exists but before the seal sentinel
// (mid-manifest-swap — the generation is still open), and after the
// sentinel (mid-seal — sealed, but no snapshot or GC happened).
// Survivors must replay the oracle state either way and keep writing.
func TestCompactorCrashMidRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sealed bool
	}{
		{"mid-manifest-swap", false},
		{"mid-seal", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			dir := t.TempDir()
			a := openSharedOpts(t, dir, "n1", Options{})
			b := openSharedOpts(t, dir, "n2", Options{})
			oracle := NewMemory()
			for i, o := range genOps(rng, 40) {
				h := a
				if i%2 == 1 {
					h = b
				}
				apply(t, h, o, false)
				apply(t, oracle, o, false)
			}
			a.crash()
			b.crash()

			// Reproduce the compactor's on-disk footprint at the crash
			// point: the successor generation's manifest, plus (mid-seal
			// only) the sealed sentinel. The epoch claim frame is already
			// in the log from a real round's step 1 — here the claimant
			// simply never appended one before dying, which is the same
			// recovery problem with fewer moving parts.
			g := curGenOnDisk(t, dir)
			next := filepath.Join(dir, walDirName, fmt.Sprintf("%s.%08d.%s", manifestTag, g+1, logExt))
			if err := os.WriteFile(next, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.sealed {
				sent := filepath.Join(dir, walDirName, fmt.Sprintf("%s.%08d.%s", manifestTag, g, sealedExt))
				if err := os.WriteFile(sent, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			c := openSharedOpts(t, dir, "n3", Options{})
			got, err := c.Load()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := oracle.Load()
			if !statesEqual(want, got) {
				t.Fatalf("replay over half-done round != oracle:\nwant %s\ngot  %s",
					dumpState(want), dumpState(got))
			}
			// The survivor writes on (into g if open, g+1 if sealed) and
			// can finish the abandoned round itself.
			mustDo(t, c.PutJob(jobRec(9001, "queued")), c.Compact())
			if st := c.Stats(); st.Compactions != 1 {
				t.Fatalf("survivor could not finish the round: %+v", st)
			}
			c.crash()

			d, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			final, _ := d.Load()
			if len(final.Jobs) != len(want.Jobs)+1 {
				t.Fatalf("post-recovery write lost: %d jobs, want %d", len(final.Jobs), len(want.Jobs)+1)
			}
		})
	}
}

// TestCompactionStaleClaimTakeover pins the epoch-claim arbitration: a
// round owned by a live peer is left alone, while a claimant silent
// past StaleAfter is superseded (its claim frame is in the log, its
// process is gone — the takeover is what keeps a crashed compactor
// from wedging compaction forever).
func TestCompactionStaleClaimTakeover(t *testing.T) {
	for _, tc := range []struct {
		name      string
		claimAge  time.Duration
		wantTaken bool
	}{
		{"live-claim-respected", 0, false},
		{"stale-claim-superseded", 2 * time.Hour, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{StaleAfter: time.Hour}
			a := openSharedOpts(t, dir, "n1", opts)
			mustDo(t, a.PutJob(jobRec(1, "queued")), a.PutJob(jobRec(2, "done")))
			// n1 claims a round and dies before sealing anything.
			a.mu.Lock()
			err := a.appendControl("epoch", epochClaim{Node: "n1", Time: time.Now().Add(-tc.claimAge)})
			a.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			a.crash()

			b := openSharedOpts(t, dir, "n2", opts)
			defer b.crash()
			want, _ := b.Load()
			if err := b.Compact(); err != nil {
				t.Fatal(err)
			}
			st := b.Stats()
			if taken := st.Compactions > 0; taken != tc.wantTaken {
				t.Fatalf("compactions=%d, want takeover=%v", st.Compactions, tc.wantTaken)
			}
			got, _ := b.Load()
			if !statesEqual(want, got) {
				t.Fatalf("takeover changed state:\nwant %s\ngot  %s", dumpState(want), dumpState(got))
			}
		})
	}
}

// TestCompactionGCBoundsDisk checks that repeated rounds actually
// bound the on-disk footprint: an exclusive writer (no peers to pin
// generations) ends a write-heavy run with only the frontier
// generation's files on disk.
func TestCompactionGCBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, CompactBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := int64(1); i <= 200; i++ {
		mustDo(t, d.PutJob(jobRec(i, "done")))
	}
	st := d.Stats()
	if st.Compactions == 0 || st.SegmentsDeleted == 0 {
		t.Fatalf("no GC after 200 writes: %+v", st)
	}
	var manifests, segments int
	minGen := int64(1 << 60)
	for _, wf := range d.scanWALDir() {
		if wf.gen < minGen {
			minGen = wf.gen
		}
		if wf.manifest {
			manifests++
		} else if !wf.sentinel {
			segments++
		}
	}
	if manifests > 2 || segments > 2 {
		t.Fatalf("GC left %d manifests and %d segments on disk", manifests, segments)
	}
	if minGen < st.Epoch {
		t.Fatalf("generation %d still on disk below frontier %d", minGen, st.Epoch)
	}
	got, _ := d.Load()
	if len(got.Jobs) != 200 {
		t.Fatalf("GC lost records: %d jobs", len(got.Jobs))
	}
}

// TestSharedIncrementalRefresh pins the cost model of a poll tick: a
// handle that refreshes after a peer appended N records folds exactly
// those N records, independent of how much history precedes them.
func TestSharedIncrementalRefresh(t *testing.T) {
	dir := t.TempDir()
	a := openSharedOpts(t, dir, "n1", Options{})
	b := openSharedOpts(t, dir, "n2", Options{})
	defer a.crash()
	defer b.crash()

	for i := int64(1); i <= 100; i++ {
		mustDo(t, b.PutJob(jobRec(i, "queued")))
	}
	mustDo(t, a.Refresh())
	base := a.Stats().RecordsRefreshed
	if base != 100 {
		t.Fatalf("initial refresh folded %d records, want 100", base)
	}

	for i := int64(101); i <= 105; i++ {
		mustDo(t, b.PutJob(jobRec(i, "queued")))
	}
	mustDo(t, a.Refresh())
	if delta := a.Stats().RecordsRefreshed - base; delta != 5 {
		t.Fatalf("poll tick folded %d records, want exactly the 5 new ones", delta)
	}
	// A tick with nothing new folds nothing.
	mustDo(t, a.Refresh())
	if delta := a.Stats().RecordsRefreshed - base; delta != 5 {
		t.Fatalf("idle poll tick folded %d extra records", delta-5)
	}
}

// BenchmarkRefreshIncremental measures one poll tick (peer appends one
// record, handle refreshes) at different amounts of pre-existing
// history. The segmented store's cursors make the tick O(new records):
// b.N scaling is flat across history sizes, where a full-rescan design
// would grow linearly.
func BenchmarkRefreshIncremental(b *testing.B) {
	for _, history := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			dir := b.TempDir()
			w, err := Open(Options{Dir: dir, NodeID: "w", CompactBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			r, err := Open(Options{Dir: dir, NodeID: "r", CompactBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			for i := 0; i < history; i++ {
				rec := jobRec(int64(i+1), "queued")
				rec.ID = fmt.Sprintf("job-h-%06d", i)
				if err := w.PutJob(rec); err != nil {
					b.Fatal(err)
				}
			}
			if err := r.Refresh(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := jobRec(int64(history+i+1), "running")
				rec.ID = fmt.Sprintf("job-b-%09d", i)
				if err := w.PutJob(rec); err != nil {
					b.Fatal(err)
				}
				if err := r.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOpenRefusesPreSegmentationDir pins the one-format contract: a
// directory holding the single-file wal.log, or a snapshot.json without
// a fold epoch, is refused by Open in exclusive and shared mode alike —
// as corruption naming the file, with every existing file left
// byte-for-byte as it was (skipping the old files instead would drop
// acknowledged records).
func TestOpenRefusesPreSegmentationDir(t *testing.T) {
	walLine, err := frameEntry(walEntry{LSN: 1, Type: "job", Data: mustJSON(t, jobRec(1, "queued"))})
	if err != nil {
		t.Fatal(err)
	}
	oldSnap := mustJSON(t, map[string]any{"lsn": 1, "jobs": []JobRecord{jobRec(1, "queued")}})
	layouts := []struct {
		name, file string
		body       []byte
	}{
		{"wal.log", legacyWAL, []byte(walLine)},
		{"snapshot-without-epoch", snapName, oldSnap},
	}
	for _, lay := range layouts {
		for _, node := range []string{"", "n1"} {
			lay, node := lay, node
			t.Run(fmt.Sprintf("%s/node=%q", lay.name, node), func(t *testing.T) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, lay.file), lay.body, 0o644); err != nil {
					t.Fatal(err)
				}
				// A crash leftover an exclusive Open would otherwise sweep.
				if err := os.WriteFile(filepath.Join(dir, snapName+".1.1.tmp"), []byte("{"), 0o644); err != nil {
					t.Fatal(err)
				}
				before := treeBytes(t, dir)
				d, err := Open(Options{Dir: dir, NodeID: node})
				if err == nil {
					d.Close()
					t.Fatal("Open accepted a pre-segmentation directory")
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v does not wrap ErrCorrupt", err)
				}
				if !strings.Contains(err.Error(), lay.file) {
					t.Fatalf("error %q does not name %s", err, lay.file)
				}
				if after := treeBytes(t, dir); !reflect.DeepEqual(before, after) {
					t.Fatalf("refused Open changed the directory:\nbefore %q\nafter  %q", before, after)
				}
			})
		}
	}
}

// treeBytes maps every path under dir (directories to "/") to its
// contents.
func treeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			tree[path] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestOpenReplaysEachRecordOnce checks that a crash-restart of a
// snapshot-less store replays each logged record exactly once.
func TestOpenReplaysEachRecordOnce(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		mustDo(t, d.PutJob(jobRec(i, "queued")))
	}
	d.crash()
	d2, err := Open(Options{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().RecordsReplayed; got != 5 {
		t.Fatalf("RecordsReplayed = %d after reopening 5 records, want 5", got)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
