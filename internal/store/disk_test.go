package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// t0 is a fixed base time so records round-trip through JSON (which
// drops the monotonic clock) comparably.
var t0 = time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)

// crash abandons a handle without Close — the SIGKILL shape: every fd
// is dropped (releasing its flocks, as process death would), nothing is
// flushed or compacted.
func (d *Disk) crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, f := range []File{d.seg, d.man} {
		if f != nil {
			f.Close()
		}
	}
	d.seg, d.man = nil, nil
	d.dropFoldReader()
	for _, cur := range d.segCurs {
		if cur.f != nil {
			cur.f.Close()
			cur.f = nil
			cur.br = nil
		}
	}
}

// curManifest returns the path of dir's newest manifest generation.
func curManifest(t *testing.T, dir string) string {
	t.Helper()
	p := newestWALFile(t, dir, func(wf walFile) bool { return wf.manifest })
	if p == "" {
		t.Fatal("no manifest file on disk")
	}
	return p
}

// curSegment returns the path of node's newest segment in dir.
func curSegment(t *testing.T, dir, node string) string {
	t.Helper()
	p := newestWALFile(t, dir, func(wf walFile) bool {
		return !wf.manifest && !wf.sentinel && wf.node == node
	})
	if p == "" {
		t.Fatalf("no segment file for node %q on disk", node)
	}
	return p
}

func newestWALFile(t *testing.T, dir string, match func(walFile) bool) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, walDirName))
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestGen int64
	for _, e := range entries {
		wf, ok := parseWALFile(e.Name())
		if ok && match(wf) && wf.gen >= bestGen {
			bestGen = wf.gen
			best = e.Name()
		}
	}
	if best == "" {
		return ""
	}
	return filepath.Join(dir, walDirName, best)
}

func jobRec(seq int64, state string) JobRecord {
	return JobRecord{
		ID:        fmt.Sprintf("job-%06d", seq),
		Seq:       seq,
		Key:       fmt.Sprintf("key-%03d", seq%7),
		Spec:      json.RawMessage(fmt.Sprintf(`{"circuit":"s%d"}`, 27+seq)),
		Member:    -1,
		State:     state,
		Submitted: t0.Add(time.Duration(seq) * time.Second),
	}
}

func sweepRec(seq int64, state string) SweepRecord {
	return SweepRecord{
		ID:    fmt.Sprintf("sweep-%04d", seq),
		Seq:   seq,
		State: state,
		Members: []SweepMemberRecord{
			{JobID: fmt.Sprintf("job-%06d", seq), Circuit: "s27", State: state},
		},
		Created: t0.Add(time.Duration(seq) * time.Minute),
	}
}

func eventRec(sweepSeq int64, seq int) EventRecord {
	return EventRecord{
		SweepID: fmt.Sprintf("sweep-%04d", sweepSeq),
		Seq:     seq,
		Data:    json.RawMessage(fmt.Sprintf(`{"type":"member_update","seq":%d}`, seq)),
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	big := []byte(`{"big":"` + strings.Repeat("x", 8192) + `"}`)
	mustDo(t,
		d.PutJob(jobRec(1, "queued")),
		d.PutJob(jobRec(2, "done")),
		d.PutJob(jobRec(3, "done")),
		d.PutJob(jobRec(1, "running")), // upsert
		d.PutSweep(sweepRec(1, "running")),
		d.AppendEvent(eventRec(1, 0)),
		d.AppendEvent(eventRec(1, 1)),
		d.PutResult("key-003", []byte(`{"small":true}`)),
		d.PutResult("key-001", big),
		d.DeleteJob("job-000002"), // no result stored under key-002
	)
	want, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(want, got) {
		t.Fatalf("state changed across reopen:\nbefore %s\nafter  %s", dumpState(want), dumpState(got))
	}
	if len(got.Jobs) != 2 || got.Jobs[0].State != "running" {
		t.Fatalf("upsert/delete not applied: %s", dumpState(got))
	}
	body, ok, err := d2.Result("key-001")
	if err != nil || !ok || !bytes.Equal(body, big) {
		t.Fatalf("spilled result: ok=%v err=%v len=%d", ok, err, len(body))
	}
	if _, err := os.Stat(filepath.Join(dir, resDir, "key-001.json")); err != nil {
		t.Fatalf("expected spill file: %v", err)
	}
}

func TestDiskTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustDo(t, d.PutJob(jobRec(1, "queued")), d.PutJob(jobRec(2, "queued")))
	want, _ := d.Load()
	d.crash() // abandon without Close: simulate SIGKILL

	// Tear the tail: append half of a record's worth of garbage to the
	// manifest (the shared ordering log, where a crash mid-append lands).
	wal := curManifest(t, dir)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"lsn":99,"t":"job","d":{"id":"job-9`)
	f.Close()

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Stats().TruncatedTail {
		t.Fatal("expected TruncatedTail")
	}
	got, _ := d2.Load()
	if !statesEqual(want, got) {
		t.Fatalf("torn tail corrupted state:\nwant %s\ngot  %s", dumpState(want), dumpState(got))
	}
	// The torn bytes must be gone so new appends parse on later replays.
	if err := d2.PutJob(jobRec(3, "queued")); err != nil {
		t.Fatal(err)
	}
	d2.crash()
	d3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	got3, _ := d3.Load()
	if len(got3.Jobs) != 3 || d3.Stats().TruncatedTail {
		t.Fatalf("append after torn tail lost: %s (truncated=%v)", dumpState(got3), d3.Stats().TruncatedTail)
	}
}

func TestDiskMidLogCorruptionRefused(t *testing.T) {
	// Flip one byte inside a *middle* record's payload: intact,
	// fsync-acknowledged records follow, so this is damage — Open must
	// refuse rather than silently truncate away later records. Both
	// halves of the segmented log get the same treatment: the manifest
	// (ordering log) and a per-node data segment.
	for _, tc := range []struct {
		name   string
		target func(t *testing.T, dir string) string
		errSub string
	}{
		{"manifest", func(t *testing.T, dir string) string { return curManifest(t, dir) }, "corrupt record mid-"},
		{"segment", func(t *testing.T, dir string) string { return curSegment(t, dir, "") }, "corrupt record in segment"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			mustDo(t, d.PutJob(jobRec(1, "queued")), d.PutJob(jobRec(2, "queued")), d.PutJob(jobRec(3, "queued")))
			d.crash()

			wal := tc.target(t, dir)
			data, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(wal, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("mid-log corruption not refused: err=%v", err)
			}
		})
	}
}

func TestDiskJobSpecMerge(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	full := jobRec(1, "queued")
	mustDo(t, d.PutJob(full))
	// Transition records omit the spec; the stored one must survive,
	// including across a crash-replay.
	slim := full
	slim.Spec = nil
	slim.State = "done"
	mustDo(t, d.PutJob(slim))
	d.crash()

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, _ := d2.Load()
	if len(got.Jobs) != 1 || got.Jobs[0].State != "done" || string(got.Jobs[0].Spec) != string(full.Spec) {
		t.Fatalf("spec not merged across empty-spec upsert: %s", dumpState(got))
	}
}

func TestDiskCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		mustDo(t, d.PutJob(jobRec(i, "done")))
	}
	mustDo(t,
		d.PutSweep(sweepRec(1, "done")),
		d.AppendEvent(eventRec(1, 0)),
		d.PutResult("key-001", []byte(`{"r":1}`)),
		d.PutResult("dropped-key", []byte(`{"r":2}`)),
		d.DeleteResult("dropped-key"),
	)
	want, _ := d.Load()
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Compactions == 0 || st.LastCompaction.IsZero() {
		t.Fatalf("compaction not recorded: %+v", st)
	}
	got, _ := d.Load()
	if !statesEqual(want, got) {
		t.Fatalf("compaction changed state:\nwant %s\ngot  %s", dumpState(want), dumpState(got))
	}
	d.crash()

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got2, _ := d2.Load()
	if !statesEqual(want, got2) {
		t.Fatalf("replay after compaction differs:\nwant %s\ngot  %s", dumpState(want), dumpState(got2))
	}
}

// TestDiskChangesFromSnapshot pins the zero-cursor contract on a
// reopened store: records that live only in snapshot.json were never
// noted in the new handle's change ring, yet the first Changes call
// must hand them over as a full resync. Otherwise a daemon started on a
// compacted directory never sees the queued jobs it should claim or the
// orphaned sweeps it should adopt.
func TestDiskChangesFromSnapshot(t *testing.T) {
	for _, logTail := range []bool{false, true} {
		dir := t.TempDir()
		d, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 3; i++ {
			mustDo(t, d.PutJob(jobRec(i, "queued")))
		}
		mustDo(t, d.PutSweep(sweepRec(1, "running")), d.Compact())
		wantJobs := 3
		if logTail {
			mustDo(t, d.PutJob(jobRec(4, "queued"))) // one record past the snapshot
			wantJobs++
		}
		mustDo(t, d.Close())

		d2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		delta, cursor, err := d2.Changes(0)
		if err != nil {
			t.Fatal(err)
		}
		if !delta.Full || len(delta.Jobs) != wantJobs || len(delta.Sweeps) != 1 {
			t.Fatalf("log tail %v: first delta full=%v with %d jobs, %d sweeps; want a full resync with %d jobs, 1 sweep",
				logTail, delta.Full, len(delta.Jobs), len(delta.Sweeps), wantJobs)
		}
		if delta, _, err = d2.Changes(cursor); err != nil || delta.Full || len(delta.Jobs)+len(delta.Sweeps) != 0 {
			t.Fatalf("log tail %v: idle follow-up delta %+v (err %v), want empty", logTail, delta, err)
		}
		mustDo(t, d2.Close())
	}
}

func TestDiskAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, CompactBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 64; i++ {
		mustDo(t, d.PutJob(jobRec(i, "done")))
	}
	if st := d.Stats(); st.Compactions == 0 {
		t.Fatalf("expected auto-compaction after %d records: %+v", 64, st)
	}
	got, _ := d.Load()
	if len(got.Jobs) != 64 {
		t.Fatalf("auto-compaction lost records: %d jobs", len(got.Jobs))
	}
	// Regression: the record whose append trips the compaction must be
	// in the snapshot that compaction writes. Crash (no Close) right
	// after the writes and replay — every acknowledged record must
	// survive.
	d.crash()
	d2, err := Open(Options{Dir: dir, CompactBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	after, _ := d2.Load()
	if !statesEqual(got, after) {
		t.Fatalf("auto-compaction + crash lost records: %d -> %d jobs\n%s",
			len(got.Jobs), len(after.Jobs), dumpState(after))
	}
}

func mustDo(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// statesEqual compares two States through JSON so raw-message fields
// compare by content and time fields by instant.
func statesEqual(a, b *State) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if bytes.Equal(ja, jb) {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func dumpState(s *State) string {
	j, _ := json.Marshal(s)
	if len(j) > 2000 {
		j = j[:2000]
	}
	return string(j)
}
