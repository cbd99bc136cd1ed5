// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablations over the design choices called out
// in DESIGN.md §5 and micro-benchmarks of the simulation engines.
//
// Naming convention: BenchmarkTable<k>... and BenchmarkFigure1... map to
// the paper's artifacts (see DESIGN.md §4); BenchmarkAblation... are the
// design-choice studies; the rest measure substrate throughput.
//
// Run everything:  go test -bench=. -benchmem .
// One experiment:  go test -bench=BenchmarkTable5 .
package seqbist_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"seqbist/internal/atpg"
	"seqbist/internal/baseline"
	"seqbist/internal/core"
	"seqbist/internal/expand"
	"seqbist/internal/experiments"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/service"
	"seqbist/internal/sim"
	"seqbist/internal/strategy"
	"seqbist/internal/tcompact"
	"seqbist/internal/tfault"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// benchSetup caches per-circuit artifacts so benchmarks measure the
// operation under study, not repeated ATPG runs.
type benchSetup struct {
	c  *netlist.Circuit
	fl []faults.Fault
	t0 vectors.Sequence
}

var (
	setupOnce  sync.Once
	setupCache map[string]*benchSetup
)

func setupFor(b *testing.B, name string) *benchSetup {
	b.Helper()
	setupOnce.Do(func() { setupCache = map[string]*benchSetup{} })
	if s, ok := setupCache[name]; ok {
		return s
	}
	c := iscas.MustLoad(name)
	fl := faults.CollapsedUniverse(c)
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: 1, MaxLen: 1500})
	if err != nil {
		b.Fatal(err)
	}
	t0, _ := tcompact.Compact(c, fl, gen.Seq)
	s := &benchSetup{c: c, fl: fl, t0: t0}
	setupCache[name] = s
	return s
}

// ---------------------------------------------------------------------
// Table 1: the §2 expansion example.

func BenchmarkTable1Expansion(b *testing.B) {
	s := vectors.MustParseSequence("000 110")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := expand.Expand(s, 2); got.Len() != 32 {
			b.Fatal("wrong expansion length")
		}
	}
}

// Table 2: fault simulation of the paper's s27 sequence.

func BenchmarkTable2S27(b *testing.B) {
	c := iscas.S27()
	fl := faults.CollapsedUniverse(c)
	t0 := experiments.S27T0()
	b.ReportAllocs()
	var det int
	for i := 0; i < b.N; i++ {
		res := fsim.Run(c, fl, t0)
		if res.NumDetected != 32 {
			b.Fatalf("detected %d", res.NumDetected)
		}
		det = res.NumDetected
	}
	// The detection count is deterministic; CI diffs it against the
	// committed counts in BENCH_3.json (scripts/bench_check.sh).
	b.ReportMetric(float64(det), "detected")
}

// Table 3: the full per-circuit pipeline (Procedure 1 + §3.2) on a
// representative circuit, measuring what one Table 3 row costs.

func BenchmarkTable3Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunCircuit("s298", experiments.Profile{
			Circuits:          []string{"s298"},
			Ns:                []int{2, 8},
			Seed:              1,
			ATPGMaxLen:        1500,
			MaxOmissionTrials: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		if run.BestRun().After.NumSequences == 0 {
			b.Fatal("empty selection")
		}
	}
}

// Table 4: normalized run time of Procedure 1 — the benchmark reports
// the paper's metric (Procedure 1 time / T0 simulation time) directly.

func BenchmarkTable4NormalizedRuntime(b *testing.B) {
	run, err := experiments.RunCircuit("s298", experiments.Profile{
		Circuits:          []string{"s298"},
		Ns:                []int{4},
		Seed:              1,
		ATPGMaxLen:        1500,
		MaxOmissionTrials: 300,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(run.NormProc1(), "xT0sim/proc1")
	b.ReportMetric(run.NormComp(), "xT0sim/comp")
	s := setupFor(b, "s298")
	cfg := core.DefaultConfig(4)
	cfg.MaxOmissionTrials = 300
	c := iscas.MustLoad("s298")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Select(c, s.fl, s.t0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 5: the stored-length ratios; reported as custom metrics so a
// bench run prints the paper-comparable numbers.

func BenchmarkTable5Ratios(b *testing.B) {
	prof := experiments.Profile{
		Circuits:          []string{"s27", "s298"},
		Ns:                []int{2, 8},
		Seed:              1,
		ATPGMaxLen:        1500,
		MaxOmissionTrials: 300,
	}
	var tot, max float64
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunAll(prof)
		if err != nil {
			b.Fatal(err)
		}
		tot, max = experiments.AverageRatios(runs)
	}
	b.ReportMetric(tot, "totlen/T0")
	b.ReportMetric(max, "maxlen/T0")
}

// Figure 1: rendering the subsequence window map.

func BenchmarkFigure1WindowMap(b *testing.B) {
	run, err := experiments.RunCircuit("s27", experiments.Profile{
		Circuits: []string{"s27"}, Ns: []int{1}, Seed: 1, ATPGMaxLen: 400,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Figure1(run) == "" {
			b.Fatal("empty figure")
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// BenchmarkAblationRepetition sweeps n and reports the stored-length
// metrics per n on s298.
func BenchmarkAblationRepetition(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(benchName("n", n), func(b *testing.B) {
			cfg := core.DefaultConfig(n)
			cfg.MaxOmissionTrials = 300
			var st core.Stats
			for i := 0; i < b.N; i++ {
				res, err := core.Select(c, s.fl, s.t0, cfg)
				if err != nil {
					b.Fatal(err)
				}
				set, _ := core.CompactSet(c, s.fl, res, cfg)
				st = core.StatsOf(set)
			}
			b.ReportMetric(float64(st.TotalLen), "totlen")
			b.ReportMetric(float64(st.MaxLen), "maxlen")
		})
	}
}

// BenchmarkAblationTargetOrder compares the paper's max-udet-first fault
// targeting against min-udet and random.
func BenchmarkAblationTargetOrder(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	orders := []struct {
		name string
		ord  core.TargetOrder
	}{
		{"maxudet", core.OrderMaxUDet},
		{"minudet", core.OrderMinUDet},
		{"random", core.OrderRandom},
	}
	for _, o := range orders {
		name, ord := o.name, o.ord
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(4)
			cfg.MaxOmissionTrials = 300
			cfg.TargetOrder = ord
			var st core.Stats
			var seqs int
			for i := 0; i < b.N; i++ {
				res, err := core.Select(c, s.fl, s.t0, cfg)
				if err != nil {
					b.Fatal(err)
				}
				st = core.StatsOf(res.Set)
				seqs = len(res.Set)
			}
			b.ReportMetric(float64(st.TotalLen), "totlen")
			b.ReportMetric(float64(seqs), "sequences")
		})
	}
}

// BenchmarkAblationOmissionRestart compares the paper-faithful omission
// (restart after every acceptance) with the single-pass variant.
func BenchmarkAblationOmissionRestart(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	for _, mode := range []struct {
		name    string
		restart bool
	}{{"restart", true}, {"singlepass", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.DefaultConfig(4)
			cfg.OmissionRestart = mode.restart
			cfg.MaxOmissionTrials = 300
			var st core.Stats
			var sims int
			for i := 0; i < b.N; i++ {
				res, err := core.Select(c, s.fl, s.t0, cfg)
				if err != nil {
					b.Fatal(err)
				}
				st = core.StatsOf(res.Set)
				sims = res.Sims
			}
			b.ReportMetric(float64(st.TotalLen), "totlen")
			b.ReportMetric(float64(sims), "sims")
		})
	}
}

// BenchmarkAblationCompactionPasses measures each §3.2 pass in isolation
// against all four.
func BenchmarkAblationCompactionPasses(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	cfg := core.DefaultConfig(4)
	cfg.MaxOmissionTrials = 300
	res, err := core.Select(c, s.fl, s.t0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name    string
		enabled [4]bool
	}{
		{"pass1_incLen", [4]bool{true, false, false, false}},
		{"pass2_decLen", [4]bool{false, true, false, false}},
		{"pass3_revGen", [4]bool{false, false, true, false}},
		{"pass4_prevDet", [4]bool{false, false, false, true}},
		{"all4", [4]bool{true, true, true, true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var after core.Stats
			for i := 0; i < b.N; i++ {
				set, _ := core.CompactSetPasses(c, s.fl, res, cfg, v.enabled)
				after = core.StatsOf(set)
			}
			b.ReportMetric(float64(after.NumSequences), "sequences")
			b.ReportMetric(float64(after.TotalLen), "totlen")
		})
	}
}

// BenchmarkBaselinePartition measures the §1 partitioning alternative and
// reports its memory requirement (max segment length) next to the
// subsequence scheme's on the same T0.
func BenchmarkBaselinePartition(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	var part baseline.PartitionResult
	for i := 0; i < b.N; i++ {
		part = baseline.Partition(c, s.fl, s.t0)
	}
	b.ReportMetric(float64(part.MaxLen), "partition_maxlen")
	b.ReportMetric(float64(part.TotalLen), "partition_load")

	cfg := core.DefaultConfig(8)
	cfg.MaxOmissionTrials = 300
	res, err := core.Select(c, s.fl, s.t0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	set, _ := core.CompactSet(c, s.fl, res, cfg)
	st := core.StatsOf(set)
	b.ReportMetric(float64(st.MaxLen), "subseq_maxlen")
	b.ReportMetric(float64(st.TotalLen), "subseq_load")
}

// BenchmarkBaselineLFSRCoverage measures pseudo-random coverage at the
// expanded-scheme's at-speed budget (the "no guarantee" comparison).
func BenchmarkBaselineLFSRCoverage(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	budget := 1728 // 8 * n=8 * 27 stored vectors, the comparison example's budget
	var cov int
	for i := 0; i < b.N; i++ {
		r := fsim.Run(c, s.fl, baseline.NewLFSR(c.NumPIs(), 1).Sequence(budget))
		cov = r.NumDetected
	}
	det := fsim.Run(c, s.fl, s.t0)
	b.ReportMetric(float64(cov), "lfsr_detected")
	b.ReportMetric(float64(det.NumDetected), "deterministic_detected")
}

// BenchmarkAblationExpansionOps isolates the §2 manipulations: the
// selection runs with progressively richer expansions, reporting the
// total storage each needs for full coverage.
func BenchmarkAblationExpansionOps(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	variants := []struct {
		name string
		ops  expand.Ops
	}{
		{"repeat", expand.OpRepeat},
		{"repeat_comp", expand.OpRepeat | expand.OpComplement},
		{"repeat_comp_shift", expand.OpRepeat | expand.OpComplement | expand.OpShift},
		{"full", expand.AllOps},
	}
	for _, v := range variants {
		name, ops := v.name, v.ops
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(4)
			cfg.MaxOmissionTrials = 300
			cfg.ExpandOps = ops
			var st core.Stats
			for i := 0; i < b.N; i++ {
				res, err := core.Select(c, s.fl, s.t0, cfg)
				if err != nil {
					b.Fatal(err)
				}
				st = core.StatsOf(res.Set)
			}
			b.ReportMetric(float64(st.TotalLen), "totlen")
			b.ReportMetric(float64(st.MaxLen), "maxlen")
		})
	}
}

// BenchmarkExtensionTransitionCoverage measures the paper's at-speed
// claim with the gross-delay transition-fault model: coverage of T0
// versus the expanded set, reported as metrics.
func BenchmarkExtensionTransitionCoverage(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	tfl := tfault.Universe(c)
	cfg := core.DefaultConfig(4)
	cfg.MaxOmissionTrials = 300
	res, err := core.Select(c, s.fl, s.t0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	set, _ := core.CompactSet(c, s.fl, res, cfg)
	var expanded []vectors.Sequence
	for _, sel := range set {
		expanded = append(expanded, expand.Expand(sel.Seq, cfg.N))
	}
	var covT0, covExp int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		covT0 = tfault.Coverage(c, tfl, s.t0)
		covExp = tfault.CoverageOfSet(c, tfl, expanded)
	}
	b.ReportMetric(float64(covT0), "tf_T0")
	b.ReportMetric(float64(covExp), "tf_expanded")
}

// BenchmarkSeedStability runs the s27 pipeline across seeds and reports
// the spread of the headline ratios (reproduction hygiene: the result
// must not be one lucky RNG draw).
func BenchmarkSeedStability(b *testing.B) {
	base := experiments.Profile{
		Circuits:          []string{"s27"},
		Ns:                []int{1, 2},
		ATPGMaxLen:        300,
		MaxOmissionTrials: 100,
	}
	var res *experiments.SeedStudyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.SeedStudy("s27", base, []uint64{1, 2, 3, 4, 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := 2.0, 0.0
	var sum float64
	for _, r := range res.TotRatios {
		sum += r
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	b.ReportMetric(sum/float64(len(res.TotRatios)), "totratio_mean")
	b.ReportMetric(hi-lo, "totratio_spread")
}

// ---------------------------------------------------------------------
// Service benchmarks.

// BenchmarkServiceThroughput measures end-to-end throughput of the
// synthesis service: each iteration submits a batch of 8 distinct jobs
// and waits for them all. The cache is disabled so every job runs the
// full pipeline; the worker pool is the only source of parallelism.
func BenchmarkServiceThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			svc := service.New(service.Config{
				Workers: workers, QueueDepth: 256, CacheSize: -1,
			})
			defer svc.Close()
			seed := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]string, 0, 8)
				for k := 0; k < 8; k++ {
					seed++
					st, err := svc.Submit(service.JobSpec{Circuit: "s298", Config: service.GenConfig{
						N: 2, Seed: seed, ATPGMaxLen: 300, MaxOmissionTrials: 40,
					}})
					if err != nil {
						b.Fatal(err)
					}
					ids = append(ids, st.ID)
				}
				for _, id := range ids {
					waitServiceDone(b, svc, id)
				}
			}
			b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkServiceCacheHit measures the content-addressed fast path: a
// resubmission of completed work is served without any synthesis. Each
// sub-benchmark runs one short job to completion, then times
// resubmissions of it: the cost of validating a spec, resolving its
// registry circuit and computing its content key (for s1423, a netlist
// of 657 gates).
func BenchmarkServiceCacheHit(b *testing.B) {
	for _, circuit := range []string{"s27", "s1423"} {
		b.Run(circuit, func(b *testing.B) {
			svc := service.New(service.Config{Workers: 1})
			defer svc.Close()
			spec := service.JobSpec{Circuit: circuit, Config: service.GenConfig{
				N: 1, Seed: 1, ATPGMaxLen: 300, MaxOmissionTrials: 40,
			}}
			st, err := svc.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			waitServiceDone(b, svc, st.ID)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit, err := svc.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !hit.CacheHit {
					b.Fatal("expected a cache hit")
				}
				if _, err := svc.Result(hit.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// synthesizeS27Seeds are the first eight miss seeds of the perfbench
// daemon-mix workload at workload seed 1.
var synthesizeS27Seeds = []uint64{1000001, 1000002, 1000003, 1000004, 1000005, 1000006, 1000007, 1000008}

// synthesizeS27Spec is one daemon-mix-shaped miss job: s27, n=2, ATPG
// capped at 300 vectors, 40 omission trials.
func synthesizeS27Spec(seed uint64) service.JobSpec {
	return service.JobSpec{Circuit: "s27", Config: service.GenConfig{
		N: 2, Seed: seed, ATPGMaxLen: 300, MaxOmissionTrials: 40,
	}}
}

// BenchmarkSynthesizeS27 runs one daemon-mix miss job per iteration
// in-process through service.Synthesize, cycling through a fixed seed
// list, with no HTTP, store or queue around it: the per-job fixed costs
// (netlist parse, the many short-lived fault-simulation engines of ATPG,
// T0 compaction, step 4, §3.2 compaction and verification) that a
// millisecond job pays. It reports, summed over the seed list, the
// faults the seeds' T0s detect, the compacted T0 lengths and the total
// stored length of the compacted sets, all deterministic. Every seed's
// T0 detects every s27 fault, so the detection count is saturated;
// scripts/bench_check.sh also gates the two lengths, which follow T0
// compaction, selection and §3.2 compaction.
func BenchmarkSynthesizeS27(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := service.Synthesize(ctx, synthesizeS27Spec(synthesizeS27Seeds[i%len(synthesizeS27Seeds)])); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var det, t0len, total int
	for _, seed := range synthesizeS27Seeds {
		res, err := service.Synthesize(ctx, synthesizeS27Spec(seed))
		if err != nil {
			b.Fatal(err)
		}
		det += res.DetectedByT0
		t0len += res.T0Len
		total += res.TotalLen
	}
	b.ReportMetric(float64(det), "detected")
	b.ReportMetric(float64(t0len), "t0len")
	b.ReportMetric(float64(total), "totlen")
}

func waitServiceDone(b *testing.B, svc *service.Service, id string) {
	b.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := svc.Status(id)
		if err != nil {
			b.Fatal(err)
		}
		if st.State == service.StateDone {
			return
		}
		if st.State.Terminal() {
			b.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			b.Fatalf("job %s stuck", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkFaultSimParallelVsSerial quantifies the 64-lane speedup.
func BenchmarkFaultSimParallelVsSerial(b *testing.B) {
	s := setupFor(b, "s298")
	c := iscas.MustLoad("s298")
	seq := s.t0
	b.Run("parallel64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fsim.Run(c, s.fl, seq)
		}
	})
	b.Run("serialSingle", func(b *testing.B) {
		batch := fsim.NewBatch(c)
		cands := []fsim.Candidate{fsim.Pack(seq, c.NumPIs()).Whole()}
		for i := 0; i < b.N; i++ {
			for _, f := range s.fl {
				batch.FirstDetecting(f, cands, 1, 0)
			}
		}
	})
}

func BenchmarkExpansionThroughput(b *testing.B) {
	s := vectors.RandomSequence(xrand.New(1), 32, 64)
	b.SetBytes(int64(expand.ExpandedLength(64, 8) * 32))
	for i := 0; i < b.N; i++ {
		expand.Expand(s, 8)
	}
}

func BenchmarkExpansionStream(b *testing.B) {
	s := vectors.RandomSequence(xrand.New(1), 32, 64)
	st := expand.NewStream(s, 8)
	b.SetBytes(int64(st.Len() * 32))
	for i := 0; i < b.N; i++ {
		st.Reset()
		for {
			if _, ok := st.Next(); !ok {
				break
			}
		}
	}
}

// BenchmarkGoodSimulationThroughput measures fault-free simulation
// (sim.Simulator.Step) of a 256-vector random sequence on s344; a "byte"
// is one vector.
func BenchmarkGoodSimulationThroughput(b *testing.B) {
	c := iscas.MustLoad("s344")
	seq := vectors.RandomSequence(xrand.New(2), c.NumPIs(), 256)
	b.SetBytes(int64(seq.Len()))
	s := sim.New(c)
	po := make([]logic.Value, c.NumPOs())
	for i := 0; i < b.N; i++ {
		state := s.InitialState()
		for _, vec := range seq {
			s.Step(state, vec, po)
		}
	}
}

// atpgRoundSeeds are the ATPG seeds BenchmarkATPGRound cycles through.
var atpgRoundSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// BenchmarkATPGRound runs one s298 ATPG (cap 200) per iteration,
// cycling through a fixed seed list. It reports, summed over the seed
// list, the faults the generated sequences detect and their raw
// lengths, both deterministic.
func BenchmarkATPGRound(b *testing.B) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	for i := 0; i < b.N; i++ {
		if _, err := atpg.Generate(c, fl, atpg.Config{Seed: atpgRoundSeeds[i%len(atpgRoundSeeds)], MaxLen: 200}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var det, t0len int
	for _, seed := range atpgRoundSeeds {
		gen, err := atpg.Generate(c, fl, atpg.Config{Seed: seed, MaxLen: 200})
		if err != nil {
			b.Fatal(err)
		}
		det += gen.NumDetected
		t0len += gen.Seq.Len()
	}
	b.ReportMetric(float64(det), "detected")
	b.ReportMetric(float64(t0len), "t0len")
}

// BenchmarkATPGS1423 runs the seed-1 s1423 ATPG at the default cap of
// 1500 vectors: the T0 the select-t0 workload generates in set-up, and
// ATPG in the regime where most fault groups stay diverged and escalate
// to the full-netlist stepper. It reports the faults the sequence
// detects, its raw length and the gates its engine evaluated, all
// deterministic.
func BenchmarkATPGS1423(b *testing.B) {
	c := iscas.MustLoad("s1423")
	fl := faults.CollapsedUniverse(c)
	var gen *atpg.Result
	for i := 0; i < b.N; i++ {
		var err error
		if gen, err = atpg.Generate(c, fl, atpg.Config{Seed: 1, MaxLen: 1500}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(gen.NumDetected), "detected")
	b.ReportMetric(float64(gen.Seq.Len()), "t0len")
	b.ReportMetric(float64(gen.Sim.GatesEvaluated), "gates/op")
}

// BenchmarkT0Compaction measures vector-restoration compaction of the
// seed-1 s298 ATPG sequence. It reports the faults the compacted T0
// detects and its length, both deterministic.
func BenchmarkT0Compaction(b *testing.B) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: 1, MaxLen: 800})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var t0 vectors.Sequence
	for i := 0; i < b.N; i++ {
		t0, _ = tcompact.Compact(c, fl, gen.Seq)
	}
	b.StopTimer()
	b.ReportMetric(float64(fsim.Run(c, fl, t0).NumDetected), "detected")
	b.ReportMetric(float64(t0.Len()), "len")
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------
// Active-region engine benchmarks (BENCH_3.json; scripts/bench.sh).

// BenchmarkFaultSimLarge measures serial whole-fault-list simulation on
// the largest registry circuits — the Table-3-scale workload the
// active-region engine targets.
func BenchmarkFaultSimLarge(b *testing.B) {
	for _, name := range []string{"s1423", "s5378", "s35932"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		seq := vectors.RandomSequence(xrand.New(1), c.NumPIs(), 200)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var det int
			for i := 0; i < b.N; i++ {
				det = fsim.New(c, fl, fsim.Options{}).Run(seq).NumDetected
			}
			b.ReportMetric(float64(det), "detected")
		})
	}
}

// BenchmarkFaultSimEvaluate measures the non-committing
// candidate-evaluation path — the ATPG inner loop, called thousands of
// times per generation round.
func BenchmarkFaultSimEvaluate(b *testing.B) {
	for _, name := range []string{"s1423", "s5378"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		inc := fsim.New(c, fl, fsim.Options{})
		inc.Extend(vectors.RandomSequence(xrand.New(2), c.NumPIs(), 50))
		cand := vectors.RandomSequence(xrand.New(3), c.NumPIs(), 32)
		// One untimed call does the engine's one-time repack, so every
		// iteration measures the steady state.
		inc.Evaluate(cand)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var det int
			for i := 0; i < b.N; i++ {
				newly, _ := inc.Evaluate(cand)
				det = len(newly)
			}
			b.ReportMetric(float64(det), "detected")
		})
	}
}

// BenchmarkFaultSimSingle measures one two-machine (fault-free plus one
// faulty) simulation: a one-candidate Batch pass checking one fault
// against one 100-vector sequence, as T0 compaction's restoration search
// and Procedure 2 do per lane.
func BenchmarkFaultSimSingle(b *testing.B) {
	for _, name := range []string{"s1423", "s5378"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		f := fl[len(fl)/2]
		seq := vectors.RandomSequence(xrand.New(4), c.NumPIs(), 100)
		batch := fsim.NewBatch(c)
		cands := []fsim.Candidate{fsim.Pack(seq, c.NumPIs()).Whole()}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			det := 0
			for i := 0; i < b.N; i++ {
				if batch.FirstDetecting(f, cands, 1, 0) == 0 {
					det = 1
				} else {
					det = 0
				}
			}
			b.ReportMetric(float64(det), "detected")
		})
	}
}

// BenchmarkProcedure2 runs Procedure 2 (core.FindSubsequence: window
// search, then omission with restart, unlimited trials) for every fault
// the seed-1 s1423 T0 detects, at n=4, on one selector — the inner loop
// the candidate-parallel detector serves. It reports the targets
// covered and the serial-equivalent trial count, both deterministic.
func BenchmarkProcedure2(b *testing.B) {
	s := setupFor(b, "s1423")
	cfg := core.DefaultConfig(4)
	b.ReportAllocs()
	b.ResetTimer()
	var det, sims int
	for i := 0; i < b.N; i++ {
		sel, err := core.NewSelector(s.c, s.fl, s.t0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		targets, _ := sel.Targets()
		det = 0
		for _, f := range targets {
			if _, _, err := sel.FindSubsequence(f); err != nil {
				b.Fatal(err)
			}
			det++
		}
		sims = sel.Sims()
	}
	b.ReportMetric(float64(det), "detected")
	b.ReportMetric(float64(sims), "sims")
}

var (
	compactVerifyOnce sync.Once
	compactVerifyRes  *core.Result
	compactVerifyErr  error
)

// BenchmarkCompactVerify runs the two post-selection steps — §3.2
// compaction (core.CompactSet) and coverage certification
// (core.VerifyCoverage) of the survivors — on the greedy Procedure 1
// result for the seed-1 s1423 T0 at n=4 (unlimited omission trials,
// built once outside the timer). Each iteration compacts a copy of the
// result that carries no Selector memo, so every iteration starts from
// nothing and does the same work; BenchmarkAnnealSelect times compaction
// as the pipeline runs it, on top of selection's detections. It reports
// the targets the survivors cover (all of F) and the number of
// survivors, both deterministic.
func BenchmarkCompactVerify(b *testing.B) {
	s := setupFor(b, "s1423")
	cfg := core.DefaultConfig(4)
	compactVerifyOnce.Do(func() { compactVerifyRes, compactVerifyErr = core.Select(s.c, s.fl, s.t0, cfg) })
	if compactVerifyErr != nil {
		b.Fatal(compactVerifyErr)
	}
	res := compactVerifyRes
	b.ReportAllocs()
	b.ResetTimer()
	var set []core.Selected
	var missed []int
	for i := 0; i < b.N; i++ {
		bare := &core.Result{Set: res.Set, DetectedByT0: res.DetectedByT0, NumTargets: res.NumTargets, UDet: res.UDet, Sims: res.Sims}
		set, _ = core.CompactSet(s.c, s.fl, bare, cfg)
		missed = core.VerifyCoverage(s.c, s.fl, bare, set, cfg)
	}
	if len(missed) != 0 {
		b.Fatalf("compacted set misses %d faults", len(missed))
	}
	b.ReportMetric(float64(res.NumTargets-len(missed)), "detected")
	b.ReportMetric(float64(len(set)), "kept")
}

// BenchmarkAnnealSelect runs one select-t0 annealing job's synthesis
// without the service around it: the anneal strategy (25 Procedure 1
// trials on one Selector) for the seed-1 s820 T0 at n=4 with unlimited
// omission trials, then §3.2 compaction of the winner. Trials share the
// Selector's detection and window memos, and compaction starts from
// their detections. It reports the targets the compacted set covers (all
// of F), the trials and the serial-equivalent Procedure 2 trial count,
// all deterministic.
func BenchmarkAnnealSelect(b *testing.B) {
	s := setupFor(b, "s820")
	cfg := strategy.Config{Core: core.DefaultConfig(4)}
	anneal, err := strategy.Get("anneal")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var out *strategy.Outcome
	var set []core.Selected
	for i := 0; i < b.N; i++ {
		if out, err = anneal.Select(s.c, s.fl, s.t0, cfg); err != nil {
			b.Fatal(err)
		}
		set, _ = core.CompactSet(s.c, s.fl, out.Result, cfg.Core)
	}
	b.StopTimer()
	missed := core.VerifyCoverage(s.c, s.fl, out.Result, set, cfg.Core)
	b.ReportMetric(float64(out.Result.NumTargets-len(missed)), "detected")
	b.ReportMetric(float64(out.Trials), "trials")
	b.ReportMetric(float64(out.Result.Sims), "sims")
}

// BenchmarkStrategyPortfolio races the synthesis-strategy portfolio on
// s5378 under a bounded search budget and reports what each strategy's
// trials buy in coverage per kilobit of test memory (max stored length x
// inputs) — the paper's storage-cost currency. Coverage is invariant
// across strategies for a fixed T0, so the metric isolates storage.
func BenchmarkStrategyPortfolio(b *testing.B) {
	s := setupFor(b, "s5378")
	cfg := strategy.Config{Core: core.Config{
		N:                 2,
		Seed:              1,
		OmissionRestart:   true,
		MaxOmissionTrials: 20,
	}}
	for _, name := range strategy.Concrete() {
		strat, err := strategy.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var st core.Stats
			var cov float64
			trials := 0
			for i := 0; i < b.N; i++ {
				out, err := strat.Select(s.c, s.fl, s.t0, cfg)
				if err != nil {
					b.Fatal(err)
				}
				set, _ := core.CompactSet(s.c, s.fl, out.Result, cfg.Core)
				st = core.StatsOf(set)
				cov = float64(out.Result.NumTargets) / float64(len(s.fl))
				trials = out.Trials
			}
			memKbit := float64(st.MaxLen*s.c.NumPIs()) / 1000
			b.ReportMetric(float64(trials), "trials")
			b.ReportMetric(float64(st.TotalLen), "totlen")
			b.ReportMetric(cov/memKbit, "cov/kbit")
		})
	}
}
