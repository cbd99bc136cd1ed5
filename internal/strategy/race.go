package strategy

import (
	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

func init() { register(race{}) }

// race is the meta-strategy: it runs every concrete strategy (portfolio
// order) on the same inputs and keeps the one whose result is cheapest
// by the numbers the pipeline will report — post-§3.2-compaction storage
// unless Config.SkipCompact — with ties going to the earlier portfolio
// entry, i.e. the paper baseline. A single-process race; the service's
// sweep-level `strategy=race` axis instead fans the same portfolio out
// as one job per strategy so a cluster races them on different nodes,
// and its winner comparison mirrors this one.
type race struct{}

func (race) Name() string { return Race }

func (race) Select(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Outcome, error) {
	var (
		win       *Outcome
		winScore  core.Stats
		sumTrials int
	)
	for _, name := range Concrete() {
		o, err := registry[name].Select(c, fl, t0, cfg)
		if err != nil {
			return nil, err // includes prompt core.ErrInterrupted propagation
		}
		sumTrials += o.Trials
		score := raceScore(c, fl, o.Result, cfg)
		if win == nil || score.Less(winScore) {
			win, winScore = o, score
		}
	}
	return &Outcome{Result: win.Result, Winner: win.Winner, Trials: sumTrials}, nil
}

// raceScore computes one leg's storage cost as the pipeline will report
// it: §3.2 compaction is applied for scoring (the winner's Result is
// returned un-compacted and the pipeline re-compacts it — deterministic,
// so the scored and reported numbers agree).
func raceScore(c *netlist.Circuit, fl []faults.Fault, res *core.Result, cfg Config) core.Stats {
	set := res.Set
	if !cfg.SkipCompact {
		set, _ = core.CompactSet(c, fl, res, cfg.Core)
	}
	return core.StatsOf(set)
}
