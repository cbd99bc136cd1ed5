package main

import (
	"errors"
	"fmt"

	"seqbist/internal/atpg"
	"seqbist/internal/bist"
	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/service"
	"seqbist/internal/strategy"
	"seqbist/internal/tcompact"
	"seqbist/internal/vectors"
)

// simPhases are the traced calls that drive the fault simulator; each
// gets the delta of fsim's process-wide counters across it. The deltas are
// attributable because the traced run executes one job at a time.
var simPhases = []string{"atpg", "tcompact", "select", "compact", "verify"}

// simCounts is fsim's counter delta across one call.
type simCounts struct {
	GatesEvaluated float64 `json:"gates_evaluated"`
	GatesSkipped   float64 `json:"gates_skipped"`
	Patterns       float64 `json:"patterns"`
}

func (s *simCounts) add(o simCounts) {
	s.GatesEvaluated += o.GatesEvaluated
	s.GatesSkipped += o.GatesSkipped
	s.Patterns += o.Patterns
}

func simDelta(before fsim.SimStats) simCounts {
	after := fsim.Stats()
	return simCounts{
		GatesEvaluated: float64(after.GatesEvaluated - before.GatesEvaluated),
		GatesSkipped:   float64(after.GatesSkipped - before.GatesSkipped),
		Patterns:       float64(after.PatternsApplied - before.PatternsApplied),
	}
}

// layerTotals sums the traced per-layer work over a workload's jobs.
type layerTotals struct {
	ATPGS, TCompactS, SelectS, CompactS, VerifyS, BISTS, T0SimS float64
	RawLen, T0Len, Trials, Sims, Sequences                      float64
	Sim                                                         map[string]*simCounts
}

// tracedRun is the traced composition's outcome.
type tracedRun struct {
	WallS   float64           `json:"wall_s"` // job spans only, not the T0 reference simulations
	Digests map[string]string `json:"digests"`
	Errors  map[string]string `json:"errors,omitempty"`
	Layers  layerTotals       `json:"layers"`
}

// runTraced runs every job as the sequence of public layer calls the
// service's pipeline makes, with a span around each call. After each job
// it times one fault simulation of the job's T0 from outside (the
// normalization base of the paper's Table 4), outside the job's span.
func runTraced(tr *tracer, jobs []job) *tracedRun {
	out := &tracedRun{Digests: map[string]string{}, Errors: map[string]string{}}
	out.Layers.Sim = map[string]*simCounts{}
	for _, p := range simPhases {
		out.Layers.Sim[p] = &simCounts{}
	}
	for _, j := range jobs {
		root := tr.begin(j.Name, "job", -1)
		res, c, fl, t0, err := composeJob(tr, root, j, &out.Layers)
		out.WallS += tr.end(root, nil).Seconds()
		if err != nil {
			out.Errors[j.Name] = err.Error()
			continue
		}
		out.Digests[j.Name] = digest(res)

		ref := tr.begin(j.Name, "fsim.t0_sim", -1)
		fsim.New(c, fl, fsim.Options{}).Run(t0)
		out.Layers.T0SimS += tr.end(ref, nil).Seconds()
	}
	return out
}

// composeJob mirrors the service pipeline (internal/service/pipeline.go)
// call for call: resolve the circuit and T0, ATPG and T0 compaction when
// no T0 is supplied, strategy selection, §3.2 compaction, coverage
// verification, and the BIST golden run. Its Result must digest equal to
// service.Synthesize's for the same spec; the benchmark checks that.
func composeJob(tr *tracer, root int, j job, lt *layerTotals) (*service.Result, *netlist.Circuit, []faults.Fault, vectors.Sequence, error) {
	// Service defaults (GenConfig.withDefaults with no service overrides).
	cfg := j.Spec.Config
	if cfg.N < 1 {
		cfg.N = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ATPGMaxLen < 1 {
		cfg.ATPGMaxLen = 1500
	}
	if cfg.Strategy == "" {
		cfg.Strategy = strategy.Default
	}

	c, err := iscas.Load(j.Spec.Circuit)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fl := faults.CollapsedUniverse(c)

	// phase opens a child span of root; done closes it, adding its fsim
	// delta to the named phase.
	phase := func(name string) (int, fsim.SimStats) { return tr.begin(j.Name, name, root), fsim.Stats() }
	done := func(i int, name string, before fsim.SimStats, counts map[string]float64) float64 {
		d := simDelta(before)
		if sc := lt.Sim[name]; sc != nil {
			sc.add(d)
		}
		if counts == nil {
			counts = map[string]float64{}
		}
		counts["gates_evaluated"], counts["gates_skipped"], counts["patterns"] = d.GatesEvaluated, d.GatesSkipped, d.Patterns
		return tr.end(i, counts).Seconds()
	}

	var t0 vectors.Sequence
	var rawLen int
	if j.Spec.T0 != "" {
		if t0, err = vectors.ParseSequence(j.Spec.T0); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("parsing t0: %w", err)
		}
		rawLen = t0.Len()
	} else {
		s, before := phase("atpg")
		gen, err := atpg.Generate(c, fl, atpg.Config{Seed: cfg.Seed, MaxLen: cfg.ATPGMaxLen})
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("atpg: %w", err)
		}
		rawLen = gen.Seq.Len()
		lt.ATPGS += done(s, "atpg", before, map[string]float64{"raw_len": float64(rawLen)})
		lt.RawLen += float64(rawLen)

		s, before = phase("tcompact")
		t0, _ = tcompact.Compact(c, fl, gen.Seq)
		lt.TCompactS += done(s, "tcompact", before, map[string]float64{"t0_len": float64(t0.Len())})
		lt.T0Len += float64(t0.Len())
	}
	if t0.Len() == 0 {
		return nil, nil, nil, nil, errors.New("no useful T0")
	}

	coreCfg := core.Config{
		N:                 cfg.N,
		Seed:              cfg.Seed,
		OmissionRestart:   true,
		MaxOmissionTrials: cfg.MaxOmissionTrials,
		Parallelism:       cfg.Parallelism,
		Lanes:             cfg.Lanes,
	}
	strat, err := strategy.Get(cfg.Strategy)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	s, before := phase("select")
	selOut, err := strat.Select(c, fl, t0, strategy.Config{Core: coreCfg, SkipCompact: cfg.SkipCompact})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("select: %w", err)
	}
	res := selOut.Result
	lt.SelectS += done(s, "select", before, map[string]float64{
		"trials": float64(selOut.Trials), "sims": float64(res.Sims), "sequences": float64(len(res.Set)),
	})
	lt.Trials += float64(selOut.Trials)
	lt.Sims += float64(res.Sims)
	lt.Sequences += float64(len(res.Set))

	set := res.Set
	if !cfg.SkipCompact {
		s, before = phase("compact")
		set, _ = core.CompactSet(c, fl, res, coreCfg)
		lt.CompactS += done(s, "compact", before, map[string]float64{"sequences": float64(len(set))})
	}
	s, before = phase("verify")
	missed := core.VerifyCoverage(c, fl, res, set, coreCfg)
	lt.VerifyS += done(s, "verify", before, map[string]float64{"missed": float64(len(missed))})
	if len(missed) != 0 {
		return nil, nil, nil, nil, fmt.Errorf("%d faults lost by selection", len(missed))
	}

	s = tr.begin(j.Name, "bist", root)
	stored := make([]vectors.Sequence, len(set))
	for i, sel := range set {
		stored[i] = sel.Seq
	}
	sess, err := bist.NewSession(c, stored, cfg.N)
	if err == nil {
		err = sess.RunGolden()
	}
	lt.BISTS += tr.end(s, nil).Seconds()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("bist: %w", err)
	}

	st := core.StatsOf(set)
	out := &service.Result{
		Circuit:        c.Name,
		N:              cfg.N,
		NumFaults:      len(fl),
		DetectedByT0:   res.NumTargets,
		RawT0Len:       rawLen,
		T0Len:          t0.Len(),
		NumSequences:   st.NumSequences,
		TotalLen:       st.TotalLen,
		MaxLen:         st.MaxLen,
		LoadCycles:     sess.LoadCycles(),
		AtSpeedCycles:  sess.AtSpeedCycles(),
		MemoryBits:     sess.MemoryBits(),
		HardwareCost:   bist.CostOf(c.NumPIs(), cfg.N, stored).String(),
		Sims:           res.Sims,
		Strategy:       selOut.Winner,
		StrategyTrials: selOut.Trials,
	}
	if len(fl) > 0 {
		out.Coverage = float64(res.NumTargets) / float64(len(fl))
	}
	golden := sess.GoldenSignatures()
	for i, sel := range set {
		out.Sequences = append(out.Sequences, service.StoredSequence{
			Vectors:     sequenceStrings(sel.Seq),
			Len:         sel.Seq.Len(),
			Window:      [2]int{sel.UStart, sel.UDet},
			TargetFault: fl[sel.TargetFault].Name(c),
			GoldenMISR:  fmt.Sprintf("%016x", golden[i]),
		})
	}
	return out, c, fl, t0, nil
}

func sequenceStrings(s vectors.Sequence) []string {
	out := make([]string, s.Len())
	for i, v := range s {
		out[i] = v.String()
	}
	return out
}
