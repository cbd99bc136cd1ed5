package experiments

import (
	"fmt"
	"strings"
	"time"

	"seqbist/internal/core"
	"seqbist/internal/report"
	"seqbist/internal/strategy"
)

// StrategyStudyRow is one strategy's outcome on the study circuit: how
// many full Procedure 1 selection runs it spent and what stored set it
// bought with them. Coverage is invariant across strategies (every
// target order covers all faults T0 detects — see internal/strategy),
// so the contest is storage cost per trial.
type StrategyStudyRow struct {
	Strategy     string        `json:"strategy"`
	Trials       int           `json:"trials"`
	Coverage     float64       `json:"coverage"`
	NumSequences int           `json:"num_sequences"`
	TotalLen     int           `json:"total_len"`
	MaxLen       int           `json:"max_len"`
	Elapsed      time.Duration `json:"elapsed"`
}

// StrategyStudyResult compares the synthesis-strategy portfolio on one
// circuit at one repetition count, against the shared T0.
type StrategyStudyResult struct {
	Circuit string             `json:"circuit"`
	N       int                `json:"n"`
	T0Len   int                `json:"t0_len"`
	Faults  int                `json:"faults"`
	Rows    []StrategyStudyRow `json:"rows"`
	// Best indexes Rows by core.Stats.Less, the race's storage-cost
	// order; the earlier portfolio entry wins ties.
	Best int `json:"best"`
}

// StrategyStudy runs every named strategy (nil = the concrete portfolio)
// on one circuit with the profile's settings and a fixed repetition
// count, and reports the per-strategy stored-set costs. All strategies
// share one T0, so the rows differ only by target-order search.
func StrategyStudy(name string, prof Profile, n int, names []string) (*StrategyStudyResult, error) {
	if len(names) == 0 {
		names = strategy.Concrete()
	}
	c, fl, t0, _, err := prof.prepare(name)
	if err != nil {
		return nil, err
	}
	_, trials, _ := prof.settingsFor(name)

	res := &StrategyStudyResult{Circuit: name, N: n, T0Len: t0.Len(), Faults: len(fl)}
	cfg := strategy.Config{Core: core.Config{
		N:                 n,
		Seed:              prof.Seed*2654435761 + uint64(n),
		OmissionRestart:   true,
		MaxOmissionTrials: trials,
	}}
	var bestStats core.Stats
	for _, sn := range names {
		strat, err := strategy.Get(sn)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := strat.Select(c, fl, t0, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s strategy %s: %v", name, sn, err)
		}
		set, _ := core.CompactSet(c, fl, out.Result, cfg.Core)
		st := core.StatsOf(set)
		row := StrategyStudyRow{
			Strategy:     sn,
			Trials:       out.Trials,
			NumSequences: st.NumSequences,
			TotalLen:     st.TotalLen,
			MaxLen:       st.MaxLen,
			Elapsed:      time.Since(start),
		}
		if len(fl) > 0 {
			row.Coverage = float64(out.Result.NumTargets) / float64(len(fl))
		}
		if len(res.Rows) == 0 || st.Less(bestStats) {
			res.Best, bestStats = len(res.Rows), st
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Markdown renders the study as a per-strategy cost table, winner
// marked, with the usual |T0|-normalized ratios.
func (r *StrategyStudyResult) Markdown() string {
	t := report.New(
		fmt.Sprintf("Strategy portfolio on %s (n=%d, |T0|=%d, %d faults)", r.Circuit, r.N, r.T0Len, r.Faults),
		"strategy", "trials", "cov", "|S|", "tot len", "tot/T0", "max len", "max/T0", "time").
		AlignLeft(0)
	for i, row := range r.Rows {
		label := row.Strategy
		if i == r.Best {
			label += " *"
		}
		tot, max := "-", "-"
		if r.T0Len > 0 {
			tot = report.Ratio(float64(row.TotalLen) / float64(r.T0Len))
			max = report.Ratio(float64(row.MaxLen) / float64(r.T0Len))
		}
		t.AddRow(label, report.Itoa(row.Trials), report.Ratio(row.Coverage),
			report.Itoa(row.NumSequences), report.Itoa(row.TotalLen), tot,
			report.Itoa(row.MaxLen), max, row.Elapsed.Round(time.Millisecond).String())
	}
	var sb strings.Builder
	sb.WriteString(t.Markdown())
	sb.WriteString("\n* = kept by the race comparator (total, then max stored length, then |S|).\n")
	return sb.String()
}
