package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"seqbist/internal/atpg"
	"seqbist/internal/bench"
	"seqbist/internal/bist"
	"seqbist/internal/core"
	"seqbist/internal/experiments"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/netlist"
	"seqbist/internal/strategy"
	"seqbist/internal/tcompact"
	"seqbist/internal/vectors"
)

// Result is the serializable outcome of one synthesis job: the selected
// subsequence set with golden signatures, plus the coverage and cost
// accounting a BIST integrator needs.
type Result struct {
	Circuit      string  `json:"circuit"`
	N            int     `json:"n"` // resolved repetition count
	NumFaults    int     `json:"num_faults"`
	DetectedByT0 int     `json:"detected_by_t0"`
	Coverage     float64 `json:"coverage"`
	RawT0Len     int     `json:"raw_t0_len"`
	T0Len        int     `json:"t0_len"`

	Sequences    []StoredSequence `json:"sequences"`
	NumSequences int              `json:"num_sequences"`
	TotalLen     int              `json:"total_len"`
	MaxLen       int              `json:"max_len"`

	LoadCycles    int    `json:"load_cycles"`
	AtSpeedCycles int    `json:"at_speed_cycles"`
	MemoryBits    int    `json:"memory_bits"`
	HardwareCost  string `json:"hardware_cost"`

	Sims      int   `json:"sims"`
	ElapsedMS int64 `json:"elapsed_ms"`

	// Strategy names the concrete synthesis strategy that produced this
	// result: the configured one, or — when the job ran `strategy=race`
	// — the portfolio leg that won.
	Strategy string `json:"strategy,omitempty"`
	// StrategyTrials counts the full Procedure 1 selection runs the
	// strategy evaluated (greedy: 1).
	StrategyTrials int `json:"strategy_trials,omitempty"`
}

// SweepRow projects the result onto the Table-3-style summary row the
// sweep aggregator (experiments.SweepTable) renders. Every projected
// field is deterministic given the job spec, so sweep summaries are
// bit-for-bit reproducible.
func (r *Result) SweepRow() experiments.SweepRow {
	return experiments.SweepRow{
		Circuit:      r.Circuit,
		Strategy:     r.Strategy,
		NumFaults:    r.NumFaults,
		Detected:     r.DetectedByT0,
		Coverage:     r.Coverage,
		T0Len:        r.T0Len,
		N:            r.N,
		NumSequences: r.NumSequences,
		TotalLen:     r.TotalLen,
		MaxLen:       r.MaxLen,
		TestLen:      8 * r.N * r.TotalLen, // the paper's applied-length rule
		MemoryBits:   r.MemoryBits,
		HardwareCost: r.HardwareCost,
	}
}

// stats is the stored set's cost in the race's storage-cost order
// (core.Stats.Less). Coverage is equal across one member's legs by
// construction, so it takes no part; exact ties keep the incumbent, so
// iterating legs in portfolio order makes the earlier strategy win, as
// in internal/strategy's in-pipeline race.
func (r *Result) stats() core.Stats {
	return core.Stats{NumSequences: r.NumSequences, TotalLen: r.TotalLen, MaxLen: r.MaxLen}
}

// StoredSequence is one selected subsequence as loaded into the on-chip
// memory, with its provenance and golden MISR signature.
type StoredSequence struct {
	Vectors     []string `json:"vectors"`
	Len         int      `json:"len"`
	Window      [2]int   `json:"window"`
	TargetFault string   `json:"target_fault"`
	GoldenMISR  string   `json:"golden_misr"`
}

// Synthesize runs the full pipeline for one spec in-process, without a
// Service: the same validation, defaulting, and stages a submitted job
// goes through, minus the queue, cache, and metrics. It exists so batch
// clients and differential tests can compare a daemon's output against a
// direct run — every field of the returned Result except ElapsedMS is
// deterministic given the spec.
func Synthesize(ctx context.Context, spec JobSpec) (*Result, error) {
	c, err := resolveCircuit(spec, bench.Limits{})
	if err != nil {
		return nil, fmt.Errorf("invalid job: %w", err)
	}
	t0, err := resolveT0(spec, c)
	if err != nil {
		return nil, fmt.Errorf("invalid job: %w", err)
	}
	return synthesize(ctx, c, t0, spec.Config.withDefaults(), nil)
}

// synthesize runs the full pipeline for one job: T0 (supplied or ATPG +
// compaction), Procedure 1 selection, §3.2 compaction, coverage
// verification, and the BIST session that produces golden signatures and
// the hardware cost report. ctx cancellation is polled between stages,
// once per ATPG round via atpg.Config.Interrupt, once per T0-compaction
// target via tcompact.CompactFrom, inside Procedure 1, §3.2 compaction
// and verification via core.Config.Interrupt, and once per stored
// sequence of the BIST golden run via bist.Session.Interrupt; a canceled
// run returns ctx's error and no Result. When obs is non-nil, per-stage
// wall times are accumulated into it for GET /metrics.
func synthesize(ctx context.Context, c *netlist.Circuit, t0 vectors.Sequence, cfg GenConfig, obs *Metrics) (*Result, error) {
	start := time.Now()
	fl := faults.CollapsedUniverse(c)

	rawT0Len := t0.Len()
	interrupt := func() bool { return ctx.Err() != nil }
	if t0 == nil {
		atpgStart := time.Now()
		gen, err := atpg.Generate(c, fl, atpg.Config{
			Seed:      cfg.Seed,
			MaxLen:    cfg.ATPGMaxLen,
			Interrupt: interrupt,
		})
		if err != nil {
			if errors.Is(err, atpg.ErrInterrupted) {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("atpg: %v", err)
		}
		rawT0Len = gen.Seq.Len()
		// ATPG's engine already holds T0's detection record, so
		// compaction starts from it instead of re-simulating T0.
		det := fsim.Result{Detected: gen.Detected, DetTime: gen.DetTime, NumDetected: gen.NumDetected}
		if t0, _, err = tcompact.CompactFrom(c, fl, gen.Seq, det, interrupt); err != nil {
			return nil, ctx.Err()
		}
		obs.observePhase("atpg", time.Since(atpgStart))
	}
	if t0.Len() == 0 {
		return nil, errors.New("no useful T0: ATPG detected nothing (or supplied T0 is empty)")
	}

	coreCfg := core.Config{
		N:                 cfg.N,
		Seed:              cfg.Seed,
		OmissionRestart:   true,
		MaxOmissionTrials: cfg.MaxOmissionTrials,
		Interrupt:         interrupt,
	}
	strat, err := strategy.Get(cfg.Strategy)
	if err != nil {
		return nil, fmt.Errorf("invalid job: %v", err)
	}
	selectStart := time.Now()
	selOut, err := strat.Select(c, fl, t0, strategy.Config{Core: coreCfg, SkipCompact: cfg.SkipCompact})
	if err != nil {
		if errors.Is(err, core.ErrInterrupted) {
			return nil, ctx.Err()
		}
		return nil, err
	}
	res := selOut.Result
	selectWall := time.Since(selectStart)
	obs.observePhase("select", selectWall)
	obs.observeStrategy(cfg.Strategy, selOut.Winner, selOut.Trials, selectWall)
	set := res.Set
	if !cfg.SkipCompact {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		compactStart := time.Now()
		set, _ = core.CompactSet(c, fl, res, coreCfg)
		obs.observePhase("compact", time.Since(compactStart))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	missed := core.VerifyCoverage(c, fl, res, set, coreCfg)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(missed) != 0 {
		return nil, fmt.Errorf("internal error: %d faults lost by selection", len(missed))
	}

	bistStart := time.Now()
	stored := make([]vectors.Sequence, len(set))
	for i, s := range set {
		stored[i] = s.Seq
	}
	sess, err := bist.NewSession(c, stored, cfg.N)
	if err != nil {
		return nil, err
	}
	sess.Interrupt = interrupt
	if err := sess.RunGolden(); err != nil {
		if errors.Is(err, bist.ErrInterrupted) {
			return nil, ctx.Err()
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs.observePhase("bist", time.Since(bistStart))

	st := core.StatsOf(set)
	out := &Result{
		Circuit:      c.Name,
		N:            cfg.N,
		NumFaults:    len(fl),
		DetectedByT0: res.NumTargets,
		RawT0Len:     rawT0Len,
		T0Len:        t0.Len(),
		NumSequences: st.NumSequences,
		TotalLen:     st.TotalLen,
		MaxLen:       st.MaxLen,

		LoadCycles:    sess.LoadCycles(),
		AtSpeedCycles: sess.AtSpeedCycles(),
		MemoryBits:    sess.MemoryBits(),
		HardwareCost:  bist.CostOf(c.NumPIs(), cfg.N, stored).String(),

		Sims:      res.Sims,
		ElapsedMS: time.Since(start).Milliseconds(),

		Strategy:       selOut.Winner,
		StrategyTrials: selOut.Trials,
	}
	if len(fl) > 0 {
		out.Coverage = float64(res.NumTargets) / float64(len(fl))
	}
	golden := sess.GoldenSignatures()
	for i, s := range set {
		out.Sequences = append(out.Sequences, StoredSequence{
			Vectors:     sequenceStrings(s.Seq),
			Len:         s.Seq.Len(),
			Window:      [2]int{s.UStart, s.UDet},
			TargetFault: fl[s.TargetFault].Name(c),
			GoldenMISR:  fmt.Sprintf("%016x", golden[i]),
		})
	}
	return out, nil
}

func sequenceStrings(s vectors.Sequence) []string {
	out := make([]string, s.Len())
	for i, v := range s {
		out[i] = v.String()
	}
	return out
}
