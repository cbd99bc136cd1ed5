package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"seqbist/internal/atpg"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/service"
	"seqbist/internal/tcompact"
)

// job is one in-process synthesis request of a workload.
type job struct {
	Name string
	Spec service.JobSpec
}

// subSeed derives the k-th generation seed of a workload from its seed, so
// consecutive workload seeds never share a job.
func subSeed(seed uint64, k int) uint64 { return seed*100 + uint64(k) }

// pipeline-atpg runs s1196 and s641 at a fixed generation seed and s820
// and s1488 at a seed derived from the workload seed. Across seeds the
// per-job cost of s1196 moves 3.6-6.4 s and of s641 1.9-3.8 s (their
// Procedure 1/2 work follows the generated T0), while s820 and s1488 move
// 10% or less, so the seed varies the inputs without varying much the
// amount of work a run measures.
var (
	pipelineFixed  = []string{"s1196", "s641"}
	pipelineSeeded = []string{"s820", "s1488"}
)

const pipelineFixedSeed = 1

// select-t0 runs one long greedy job and two annealing jobs on supplied
// T0s. The T0s come from fixed ATPG seeds (s1423: 1001 vectors, s820: 330):
// between ATPG seeds the selection cost of one circuit varies up to 3.6x,
// more than a run can average away, while on a fixed T0 it is steady. The
// workload seed drives the annealing jobs' seeds (annealing moves and
// Procedure 2's omission order); the greedy job is the same in every run.
const (
	selectT0Seed     = 1
	selectGreedy     = "s1423"
	selectAnneal     = "s820"
	selectAnnealJobs = 2 // per pass
)

// serialSim pins each job's fault simulation to one goroutine, as the
// daemon-mix daemon's -sim-workers 1 does: a sharded simulation's speed
// follows whatever else runs on the host's other cores. Results are
// identical at any parallelism, and the service leaves it out of the
// content key; every other setting is the service default.
const serialSim = 1

// buildJobs generates an in-process workload's job list from its seed. It
// is the workload's set-up: supplied T0s are generated here, outside the
// timed part.
func buildJobs(workload string, seed uint64) ([]job, error) {
	switch workload {
	case "pipeline-atpg":
		var jobs []job
		add := func(circuit string, s uint64) {
			jobs = append(jobs, job{
				Name: fmt.Sprintf("%s/seed=%d", circuit, s),
				Spec: service.JobSpec{Circuit: circuit, Config: service.GenConfig{Seed: s, Parallelism: serialSim}},
			})
		}
		for _, c := range pipelineFixed {
			add(c, pipelineFixedSeed)
		}
		for _, c := range pipelineSeeded {
			add(c, subSeed(seed, 1))
		}
		return jobs, nil
	case "select-t0":
		greedyT0, err := generateT0(selectGreedy, selectT0Seed)
		if err != nil {
			return nil, err
		}
		annealT0, err := generateT0(selectAnneal, selectT0Seed)
		if err != nil {
			return nil, err
		}
		jobs := []job{{
			Name: fmt.Sprintf("%s/greedy/seed=%d", selectGreedy, selectT0Seed),
			Spec: service.JobSpec{Circuit: selectGreedy, T0: greedyT0,
				Config: service.GenConfig{N: 4, Seed: selectT0Seed, Strategy: "greedy", Parallelism: serialSim}},
		}}
		for k := 1; k <= selectAnnealJobs; k++ {
			s := subSeed(seed, k)
			jobs = append(jobs, job{
				Name: fmt.Sprintf("%s/anneal/seed=%d", selectAnneal, s),
				Spec: service.JobSpec{Circuit: selectAnneal, T0: annealT0,
					Config: service.GenConfig{N: 4, Seed: s, Strategy: "anneal", Parallelism: serialSim}},
			})
		}
		return jobs, nil
	}
	return nil, fmt.Errorf("unknown in-process workload %q", workload)
}

// generateT0 produces a supplied T0 the way the service would: ATPG at the
// default length cap, then T0 compaction, encoded as the JobSpec.T0 text.
func generateT0(circuit string, seed uint64) (string, error) {
	c, err := iscas.Load(circuit)
	if err != nil {
		return "", err
	}
	fl := faults.CollapsedUniverse(c)
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: seed, MaxLen: 1500})
	if err != nil {
		return "", fmt.Errorf("generating T0 for %s: %w", circuit, err)
	}
	t0, _ := tcompact.Compact(c, fl, gen.Seq)
	return strings.Join(sequenceStrings(t0), " "), nil
}

// warmupSpec is a short job (about 0.1 s) run at the end of every set-up
// so the timed part starts with the pipeline's code paths and heap warm.
var warmupSpec = service.JobSpec{Circuit: "s298",
	Config: service.GenConfig{N: 4, Seed: 1, ATPGMaxLen: 400, MaxOmissionTrials: 100}}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// jobRun is the outcome of one job execution.
type jobRun struct {
	Name   string  `json:"name"`
	MS     float64 `json:"ms"`
	Digest string  `json:"digest,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// pass is one execution of a workload's whole job list.
type pass struct {
	WallS float64  `json:"wall_s"`
	Jobs  []jobRun `json:"jobs"`
}

// childOutput is what the child process hands back to the parent.
type childOutput struct {
	SetupS  []float64  `json:"setup_s"`
	Passes  []pass     `json:"passes"`
	Traced  *tracedRun `json:"traced,omitempty"`
	RSSMB   float64    `json:"rss_mb"`
	Spans   []span     `json:"spans,omitempty"`
	JobList []string   `json:"job_list"`
	Error   string     `json:"error,omitempty"`
}

// runChild is the in-process workload body, run in a fresh process per
// benchmark run so peak RSS and caches start comparable. Untraced, it
// repeats the job list through service.Synthesize while the time budget
// lasts; traced, it runs one untraced pass and then the traced
// composition of the same jobs.
func runChild(workload string, seed uint64, seconds float64, traced bool) childOutput {
	var out childOutput
	var jobs []job
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if jobs, err = buildJobs(workload, seed); err != nil {
			out.Error = err.Error()
			return out
		}
		if _, err := service.Synthesize(context.Background(), warmupSpec); err != nil {
			out.Error = "warm-up: " + err.Error()
			return out
		}
		out.SetupS = append(out.SetupS, time.Since(start).Seconds())
	}
	for _, j := range jobs {
		out.JobList = append(out.JobList, j.Name)
	}

	budget := time.Duration(seconds * float64(time.Second))
	begin := time.Now()
	for {
		p := runPass(jobs)
		out.Passes = append(out.Passes, p)
		if traced {
			break
		}
		last := time.Duration(p.WallS * float64(time.Second))
		if time.Since(begin)+last > budget {
			break
		}
	}
	if traced {
		tr := newTracer()
		out.Traced = runTraced(tr, jobs)
		out.Spans = tr.spans
	}
	rss, err := vmHWM("self")
	if err != nil {
		out.Error = err.Error()
	}
	out.RSSMB = rss
	return out
}

// runPass runs every job once, one after another, through the service's
// in-process entry point.
func runPass(jobs []job) pass {
	var p pass
	start := time.Now()
	for _, j := range jobs {
		t := time.Now()
		res, err := service.Synthesize(context.Background(), j.Spec)
		r := jobRun{Name: j.Name, MS: ms(time.Since(t))}
		if err != nil {
			r.Err = err.Error()
		} else {
			r.Digest = digest(res)
		}
		p.Jobs = append(p.Jobs, r)
	}
	p.WallS = time.Since(start).Seconds()
	return p
}

// childMain runs the child and prints its output as one JSON line.
func childMain(workload string, seed uint64, seconds float64, traced bool) {
	out := runChild(workload, seed, seconds, traced)
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		os.Exit(1)
	}
}
