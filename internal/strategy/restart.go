package strategy

import (
	"seqbist/internal/faults"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

func init() { register(restart{}) }

// restartLabel decorrelates restart's shuffle stream from the other
// strategies forking off the same configuration seed.
const restartLabel = 0x7265737461727400 // "restart\0"

// restart is seeded random-restart greedy: trial 0 evaluates the paper's
// greedy target order, the remaining restartTrials-1 trials evaluate
// independent seeded shuffles of it, and the cheapest stored set wins.
// The simplest portfolio member beyond the baseline — it can only tie or
// beat greedy under the strategy comparator (the greedy order is always
// in the candidate set).
type restart struct{}

func (restart) Name() string { return "restart" }

func (restart) Select(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Outcome, error) {
	e, err := newEvaluator(c, fl, t0, cfg)
	if err != nil {
		return nil, err
	}
	order := e.greedyOrder()
	best, err := e.eval(order)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Core.Seed).Fork(restartLabel)
	for t := 1; t < restartTrials && len(order) > 1; t++ {
		perm := append([]int(nil), order...)
		rng.Shuffle(perm)
		r, err := e.eval(perm)
		if err != nil {
			return nil, err
		}
		if better(r, best) {
			best = r
		}
	}
	return &Outcome{Result: best, Winner: "restart", Trials: e.trials}, nil
}
