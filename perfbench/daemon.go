package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"seqbist/internal/service"
)

// daemon-mix: a closed loop of daemonClients clients against one seqbistd
// with a durable, fsynced store. Each client submits a job, polls its
// status every pollInterval until it is terminal, then fetches the result.
const (
	daemonClients = 2
	pollInterval  = 2 * time.Millisecond
	// daemonCompactBytes is low enough that online store compaction runs
	// several rounds inside every run.
	daemonCompactBytes = 256 << 10
	// hitWindow is how far back, in misses, a resubmitted spec may reach.
	hitWindow = 16
	// maxOps ends the loop before the time budget on a host that keeps up
	// (about 17 s at 140 jobs/s), so the daemon's peak RSS, which grows
	// with the jobs it has served, compares across runs.
	maxOps = 2400
	// batchJobs is the completion batch whose wall time wall_s reports.
	batchJobs       = 100
	warmupJobs      = 20
	missSeedStride  = 1_000_000
	warmupSeedBase  = 900_000
	daemonReadyWait = 30 * time.Second
	opTimeout       = 30 * time.Second
)

// mixSpec is the daemon-mix job: s27, small enough that the service's own
// layers (admission, store append and fsync, queue, cache) dominate.
func mixSpec(seed uint64) service.JobSpec {
	return service.JobSpec{Circuit: "s27",
		Config: service.GenConfig{N: 2, Seed: seed, ATPGMaxLen: 300, MaxOmissionTrials: 40}}
}

// mix hands out the workload's deterministic job sequence: op i is a miss
// (a fresh seed) or a hit (a spec a completed earlier op submitted), as
// drawn from the workload seed.
type mix struct {
	mu     sync.Mutex
	rng    *rand.Rand
	seed   uint64
	ops    int
	limit  int       // ops the current loop may issue
	misses []missRef // submitted misses, in op order
}

type missRef struct {
	op   int
	spec int // index into the distinct-spec sequence
}

func newMix(seed uint64) *mix {
	return &mix{rng: rand.New(rand.NewSource(int64(seed))), seed: seed}
}

// next returns the next op's distinct-spec index, or false once the loop
// has issued maxOps ops. A hit only reaches ops at least two back, which
// have completed: each of the two clients holds at most one op at a time.
func (m *mix) next() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	op := m.ops
	if op >= m.limit {
		return 0, false
	}
	m.ops++
	wantHit := m.rng.Intn(2) == 1
	pick := m.rng.Intn(hitWindow)
	var eligible []missRef
	for i := len(m.misses) - 1; i >= 0 && len(eligible) < hitWindow; i-- {
		if m.misses[i].op <= op-2 {
			eligible = append(eligible, m.misses[i])
		}
	}
	if wantHit && len(eligible) > 0 {
		return eligible[pick%len(eligible)].spec, true
	}
	s := len(m.misses)
	m.misses = append(m.misses, missRef{op: op, spec: s})
	return s, true
}

func (m *mix) specSeed(spec int) uint64 { return m.seed*missSeedStride + uint64(spec) + 1 }

// opRecord is one client operation: submit, polls, result.
type opRecord struct {
	spec      int
	submitted time.Time // client clock, start of the POST
	submit    time.Duration
	done      time.Duration // to the poll that saw done
	completed time.Time     // after the result GET
	polls     int
	status    service.Status
	digest    string
	err       error
}

// daemonProc is one running seqbistd.
type daemonProc struct {
	cmd  *exec.Cmd
	url  string
	exit chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin on a fresh data dir under dir and waits for
// /readyz to answer 200.
func startDaemon(bin, dir string) (*daemonProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "seqbistd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", data, "-workers", "2", "-sim-workers", "1",
		"-compact-bytes", strconv.Itoa(daemonCompactBytes))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting seqbistd: %w", err)
	}
	d := &daemonProc{cmd: cmd, url: "http://" + addr, exit: make(chan error, 1)}
	go func() { d.exit <- cmd.Wait() }()

	deadline := time.Now().Add(daemonReadyWait)
	for {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.exit:
			d.exit <- err // keep it for stop
			return nil, fmt.Errorf("seqbistd exited before ready: %v (log in %s)", err, dir)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("seqbistd not ready after %v", daemonReadyWait)
		}
	}
}

// stop terminates the daemon gracefully and waits for it to exit, killing
// it if the drain takes too long.
func (d *daemonProc) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited daemon is drained below
	select {
	case <-d.exit:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exit
	}
}

func newClient(url string) *service.Client {
	return &service.Client{
		BaseURL:    url,
		HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}},
		MaxRetries: -1, // a refused request counts as failed, never retried away
	}
}

// runOp performs one closed-loop operation.
func runOp(cl *service.Client, spec service.JobSpec) opRecord {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	rec := opRecord{submitted: time.Now()}
	st, err := cl.SubmitJob(ctx, spec)
	rec.submit = time.Since(rec.submitted)
	if err != nil {
		rec.err = err
		return rec
	}
	for !st.State.Terminal() {
		time.Sleep(pollInterval)
		if st, err = cl.JobStatus(ctx, st.ID); err != nil {
			rec.err = err
			return rec
		}
		rec.polls++
	}
	rec.done = time.Since(rec.submitted)
	rec.status = st
	if st.State != service.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return rec
	}
	res, err := cl.JobResult(ctx, st.ID)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.digest = digest(res)
	rec.completed = time.Now()
	return rec
}

// runLoop drives the closed loop for d and returns the ops plus the loop's
// start time.
func runLoop(url string, m *mix, d time.Duration) ([]opRecord, time.Time) {
	var mu sync.Mutex
	var recs []opRecord
	start := time.Now()
	stopAt := start.Add(d)
	m.mu.Lock()
	m.limit = m.ops + maxOps
	m.mu.Unlock()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(url)
			for time.Now().Before(stopAt) {
				spec, ok := m.next()
				if !ok {
					return
				}
				rec := runOp(cl, mixSpec(m.specSeed(spec)))
				rec.spec = spec
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, start
}

// setupDaemon starts a daemon on a fresh data dir and warms it up with
// warmupJobs jobs outside the measured seed range.
func setupDaemon(bin, dir string, seed uint64) (*daemonProc, error) {
	d, err := startDaemon(bin, dir)
	if err != nil {
		return nil, err
	}
	cl := newClient(d.url)
	for i := 0; i < warmupJobs; i++ {
		rec := runOp(cl, mixSpec(seed*missSeedStride+warmupSeedBase+uint64(i)))
		if rec.err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", rec.err)
		}
	}
	return d, nil
}

// loopStats summarizes one loop's ops.
type loopStats struct {
	jobs              int
	wallS, jobsPerSec float64
	submit, done      []float64 // ms, successful ops
	polls             int
}

// summarize counts the loop's ops into rep and computes its timings:
// wall_s is the median wall time of consecutive batchJobs completions.
func summarize(recs []opRecord, start time.Time, rep *report) loopStats {
	var ls loopStats
	var completions []time.Time
	for _, r := range recs {
		rep.Attempted++
		if r.err != nil {
			rep.fail("op on spec %d: %v", r.spec, r.err)
			continue
		}
		ls.jobs++
		ls.polls += r.polls
		ls.submit = append(ls.submit, ms(r.submit))
		ls.done = append(ls.done, ms(r.done))
		completions = append(completions, r.completed)
	}
	sort.Slice(completions, func(i, j int) bool { return completions[i].Before(completions[j]) })
	var batches []float64
	prev := start
	for i := batchJobs - 1; i < len(completions); i += batchJobs {
		batches = append(batches, completions[i].Sub(prev).Seconds())
		prev = completions[i]
	}
	ls.wallS = median(batches)
	if n := len(completions); n > 0 {
		ls.jobsPerSec = float64(n) / completions[n-1].Sub(start).Seconds()
	}
	return ls
}

// checkDigests is the daemon-vs-direct differential: every daemon result
// must digest equal to in-process service.Synthesize on the same spec. The
// distinct specs are re-synthesized by daemonClients goroutines.
func checkDigests(recs []opRecord, m *mix, rep *report) error {
	var specs []int
	want := map[int]string{}
	for _, r := range recs {
		if _, seen := want[r.spec]; r.err == nil && !seen {
			want[r.spec] = ""
			specs = append(specs, r.spec)
		}
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < daemonClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(specs); i += daemonClients {
				res, err := service.Synthesize(context.Background(), mixSpec(m.specSeed(specs[i])))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("in-process synthesis of spec %d: %w", specs[i], err)
				} else if err == nil {
					want[specs[i]] = digest(res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, r := range recs {
		if r.err == nil && r.digest != want[r.spec] {
			rep.fail("spec %d (job %s): daemon digest %s, in-process %s", r.spec, r.status.ID, r.digest, want[r.spec])
		}
	}
	rep.note("differential check: %d distinct specs re-synthesized in-process", len(specs))
	return nil
}

// runDaemonMix is the daemon-mix workload.
func runDaemonMix(root string, seed uint64, seconds float64, traced bool, rep *report) error {
	bin := filepath.Join(root, ".bench_build", "seqbistd")
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "daemon-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var setups []float64
	var d *daemonProc
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if d, err = setupDaemon(bin, filepath.Join(work, strconv.Itoa(i)), seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			d.stop()
		}
	}
	defer d.stop()
	m := newMix(seed)
	cl := newClient(d.url)
	ctx := context.Background()
	budget := time.Duration(seconds * float64(time.Second))

	if !traced {
		before, err := cl.Metrics(ctx)
		if err != nil {
			return err
		}
		recs, start := runLoop(d.url, m, budget)
		after, err := cl.Metrics(ctx)
		if err != nil {
			return err
		}
		rss, err := vmHWM(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return err
		}
		ls := summarize(recs, start, rep)
		rep.set("setup_s", "s", median(setups))
		rep.set("wall_s", "s", ls.wallS)
		rep.set("jobs_per_s", "1/s", ls.jobsPerSec)
		rep.set("peak_rss_mb", "MiB", rss)
		rep.note("daemon-mix: %d jobs, wall_s per %d-job batch; done_ms over %d samples: p50 %.3f p99 %.3f; submit_ms p50 %.3f p99 %.3f",
			ls.jobs, batchJobs, len(ls.done), median(ls.done), quantile(ls.done, 0.99), median(ls.submit), quantile(ls.submit, 0.99))
		rep.note("store compactions during the loop: %d", storeDelta(before, after).Compactions)
		return checkDigests(recs, m, rep)
	}

	// Traced: an untraced half then a traced half on the same daemon; the
	// difference of their wall_s is the tracing overhead.
	plain, start := runLoop(d.url, m, budget/2)
	plainStats := summarize(plain, start, rep)
	before, err := cl.Metrics(ctx)
	if err != nil {
		return err
	}
	tr := newTracer()
	recs, start := runLoop(d.url, m, budget/2)
	after, err := cl.Metrics(ctx)
	if err != nil {
		return err
	}
	ls := summarize(recs, start, rep)
	layerDaemon(tr, recs, ls, before, after, rep)
	rep.set("trace.wall_s", "s", ls.wallS)
	rep.set("trace.overhead_s", "s", ls.wallS-plainStats.wallS)
	if err := checkDigests(append(plain, recs...), m, rep); err != nil {
		return err
	}
	return writeTrace(root, "daemon-mix", seed, tr.spans)
}

// storeDelta is the change of the store counters between two snapshots;
// BytesOnDisk is the footprint at the second.
func storeDelta(before, after service.MetricsSnapshot) service.StoreSnapshot {
	var d service.StoreSnapshot
	if before.Store == nil || after.Store == nil {
		return d
	}
	d.RecordsWritten = after.Store.RecordsWritten - before.Store.RecordsWritten
	d.Compactions = after.Store.Compactions - before.Store.Compactions
	d.WriteErrors = after.Store.WriteErrors - before.Store.WriteErrors
	d.BytesOnDisk = after.Store.BytesOnDisk
	return d
}

// layerDaemon turns the traced half's client spans, server timestamps and
// /metrics deltas into the per-layer metrics.
func layerDaemon(tr *tracer, recs []opRecord, ls loopStats, before, after service.MetricsSnapshot, rep *report) {
	var queue, run []float64
	var sumSubmit, sumQueue, sumRun, sumDone float64
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		job := fmt.Sprintf("op-%d", i)
		root := tr.at(job, "op", -1, r.submitted, r.submitted.Add(r.done), map[string]float64{"polls": float64(r.polls)})
		tr.at(job, "submit", root, r.submitted, r.submitted.Add(r.submit), nil)
		sumSubmit += ms(r.submit)
		sumDone += ms(r.done)
		st := r.status
		if st.StartedAt != nil && st.FinishedAt != nil && !st.CacheHit {
			q, x := ms(st.StartedAt.Sub(st.SubmittedAt)), ms(st.FinishedAt.Sub(*st.StartedAt))
			queue, run = append(queue, q), append(run, x)
			sumQueue += q
			sumRun += x
			tr.at(job, "service.queue", root, st.SubmittedAt, *st.StartedAt, nil)
			tr.at(job, "service.run", root, *st.StartedAt, *st.FinishedAt, nil)
		}
	}
	rep.set("submit_ms_p50", "ms", median(ls.submit))
	rep.set("submit_ms_p99", "ms", quantile(ls.submit, 0.99))
	rep.set("done_ms_p50", "ms", median(ls.done))
	rep.set("done_ms_p99", "ms", quantile(ls.done, 0.99))
	rep.set("service.queue_wait_ms_p50", "ms", median(queue))
	rep.set("service.queue_wait_ms_p99", "ms", quantile(queue, 0.99))
	rep.set("service.run_ms_p50", "ms", median(run))
	hits := after.Cache.Hits - before.Cache.Hits
	if lookups := hits + after.Cache.Misses - before.Cache.Misses; lookups > 0 {
		rep.set("service.cache_hit_ratio", "ratio", float64(hits)/float64(lookups))
	}
	sd := storeDelta(before, after)
	if ls.jobs > 0 {
		rep.set("service.polls_per_job", "count", float64(ls.polls)/float64(ls.jobs))
		rep.set("store.records_per_job", "count", float64(sd.RecordsWritten)/float64(ls.jobs))
	}
	for _, p := range []string{"atpg", "select", "compact", "bist"} {
		rep.set("service.phase."+p+"_s", "s", after.PhaseSeconds[p]-before.PhaseSeconds[p])
	}
	if after.Jobs.Submitted > 0 {
		rep.set("store.bytes_per_job", "bytes", float64(sd.BytesOnDisk)/float64(after.Jobs.Submitted))
	}
	rep.set("store.compactions", "count", float64(sd.Compactions))
	rep.set("store.write_errors", "count", float64(sd.WriteErrors))
	if sumDone > 0 {
		rep.set("split.submit_share", "ratio", sumSubmit/sumDone)
		rep.set("split.queue_share", "ratio", sumQueue/sumDone)
		rep.set("split.run_share", "ratio", sumRun/sumDone)
	}
	rep.note("traced half: %d jobs, %d misses timed by the server for queue/run", ls.jobs, len(queue))
}
