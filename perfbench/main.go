// Command perfbench is seqbist's benchmark. It runs one workload, checks
// every job's output against expected digests, and prints each metric by
// name with its unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload pipeline-atpg --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json says why each exists):
//
//	pipeline-atpg  in-process service.Synthesize, ATPG path, no T0 supplied
//	select-t0      in-process service.Synthesize with a supplied T0
//	daemon-mix     the seqbistd binary under a closed loop of two clients
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the traced variant and reports the per-layer metrics,
// writing the spans to .bench_build/trace/. It exits non-zero when any
// operation failed or any digest mismatched.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// childTimeout bounds one in-process child so a run always ends.
const childTimeout = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "pipeline-atpg, select-t0 or daemon-mix")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root (holds BENCHMARK.json and .bench_build/)")
	child := flag.Bool("child", false, "internal: run an in-process workload body and print its output")
	flag.Parse()

	if *child {
		childMain(*workload, *seed, *seconds, *trace == 1)
		return
	}
	rep := newReport()
	var err error
	switch *workload {
	case "pipeline-atpg", "select-t0":
		err = runInProc(*root, *workload, *seed, *seconds, *trace == 1, rep)
	case "daemon-mix":
		err = runDaemonMix(*root, *seed, *seconds, *trace == 1, rep)
	default:
		err = fmt.Errorf("unknown workload %q (have pipeline-atpg, select-t0, daemon-mix)", *workload)
	}
	if err == nil {
		err = rep.print(*root, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

// runInProc runs an in-process workload in a fresh child process and
// checks its digests: every pass against the first, the first against the
// expected digests, and the traced composition against the first pass.
func runInProc(root, workload string, seed uint64, seconds float64, traced bool, rep *report) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("in-process child: %w", err)
	}
	var out childOutput
	if err := json.Unmarshal(stdout, &out); err != nil {
		return fmt.Errorf("decoding child output: %w", err)
	}
	if out.Error != "" {
		return errors.New(out.Error)
	}

	ref := map[string]string{}
	var walls, jobMS []float64
	for pi, p := range out.Passes {
		walls = append(walls, p.WallS)
		for _, j := range p.Jobs {
			rep.Attempted++
			jobMS = append(jobMS, j.MS)
			switch {
			case j.Err != "":
				rep.fail("pass %d, %s: %s", pi+1, j.Name, j.Err)
			case pi == 0:
				ref[j.Name] = j.Digest
			case ref[j.Name] != j.Digest:
				rep.fail("pass %d, %s: digest %s differs from pass 1's %s", pi+1, j.Name, j.Digest, ref[j.Name])
			}
		}
	}
	if err := checkExpected(root, workload, seed, ref, rep); err != nil {
		return err
	}

	if !traced {
		total := 0.0
		for _, w := range walls {
			total += w
		}
		rep.set("setup_s", "s", median(out.SetupS))
		rep.set("wall_s", "s", median(walls))
		rep.set("jobs_per_s", "1/s", float64(len(jobMS))/total)
		rep.set("peak_rss_mb", "MiB", out.RSSMB)
		rep.note("%s: %d jobs per pass, %d passes", workload, len(out.JobList), len(walls))
		for _, p := range out.Passes {
			for _, j := range p.Jobs {
				rep.note("  %-28s %10.1f ms", j.Name, j.MS)
			}
		}
		return nil
	}

	tr := out.Traced
	for _, name := range out.JobList {
		rep.Attempted++
		if e := tr.Errors[name]; e != "" {
			rep.fail("traced %s: %s", name, e)
		} else if tr.Digests[name] != ref[name] {
			rep.fail("traced %s: digest %s, untraced service.Synthesize %s", name, tr.Digests[name], ref[name])
		}
	}
	l := tr.Layers
	rep.set("atpg.s", "s", l.ATPGS)
	rep.set("atpg.raw_len", "count", l.RawLen)
	rep.set("tcompact.s", "s", l.TCompactS)
	rep.set("tcompact.t0_len", "count", l.T0Len)
	rep.set("strategy.select_s", "s", l.SelectS)
	rep.set("strategy.trials", "count", l.Trials)
	rep.set("core.sims", "count", l.Sims)
	rep.set("core.sequences", "count", l.Sequences)
	rep.set("fsim.t0_sim_s", "s", l.T0SimS)
	if l.T0SimS > 0 {
		rep.set("core.norm_proc1", "ratio", l.SelectS/l.T0SimS)
	}
	rep.set("core.compact_s", "s", l.CompactS)
	rep.set("core.verify_s", "s", l.VerifyS)
	rep.set("bist.golden_s", "s", l.BISTS)
	for name, sc := range l.Sim {
		p := "fsim." + name + "."
		rep.set(p+"gates_evaluated", "count", sc.GatesEvaluated)
		rep.set(p+"gates_skipped", "count", sc.GatesSkipped)
		rep.set(p+"patterns", "count", sc.Patterns)
		if all := sc.GatesEvaluated + sc.GatesSkipped; all > 0 {
			rep.set(p+"skip_ratio", "ratio", sc.GatesSkipped/all)
		}
	}
	rep.set("trace.wall_s", "s", tr.WallS)
	rep.set("trace.overhead_s", "s", tr.WallS-walls[0])
	if tr.WallS > 0 {
		rep.set("split.atpg_tcompact_share", "ratio", (l.ATPGS+l.TCompactS)/tr.WallS)
		rep.set("split.select_core_bist_share", "ratio", (l.SelectS+l.CompactS+l.VerifyS+l.BISTS)/tr.WallS)
	}
	return writeTrace(root, workload, seed, out.Spans)
}

// recorded is perfbench/recorded.json: the default seed and, for it, the
// expected job digests of the in-process workloads.
type recorded struct {
	Seed    uint64                       `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

// checkExpected compares a run's first-pass digests with the expected
// ones: recorded in perfbench/recorded.json for the recorded seed, or the
// first run's for any other seed (kept under .bench_build/digests/).
func checkExpected(root, workload string, seed uint64, got map[string]string, rep *report) error {
	raw, err := os.ReadFile(filepath.Join(root, "perfbench", "recorded.json"))
	if err != nil {
		return err
	}
	var rec recorded
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("perfbench/recorded.json: %w", err)
	}
	want, source := rec.Digests[workload], "perfbench/recorded.json"
	if seed != rec.Seed || want == nil {
		path := filepath.Join(root, ".bench_build", "digests", fmt.Sprintf("%s-seed%d.json", workload, seed))
		source = path
		prev, err := os.ReadFile(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			enc, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				return err
			}
			rep.note("first run of seed %d: digests recorded in %s", seed, path)
			return os.WriteFile(path, enc, 0o644)
		case err != nil:
			return err
		}
		want = nil // decode into a fresh map, not the recorded seed's
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for name, d := range want {
		if got[name] != d {
			rep.fail("%s: digest %q, expected %s from %s", name, got[name], d, source)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			rep.fail("%s: no expected digest in %s", name, source)
		}
	}
	return nil
}

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// print writes the human-readable notes and metric lines, then the JSON
// result line with exactly the metrics BENCHMARK.json declares for the
// mode. An end-to-end metric the workload did not measure is an error; a
// per-layer metric of a layer the workload does not cross reads 0.
func (r *report) print(root string, traced bool) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	out := map[string]metric{}
	for _, d := range list {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok && !traced:
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		case !ok:
			m = metric{Unit: d.Unit}
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	for _, n := range r.Notes {
		fmt.Println("#", n)
	}
	failedFrac := 0.0
	if r.Attempted > 0 {
		failedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-36s %.6g %s\n", "failed_frac", failedFrac, "ratio")
	for _, d := range list {
		fmt.Printf("%-36s %.6g %s\n", d.Name, out[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
