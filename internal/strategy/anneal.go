package strategy

import (
	"math"

	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

func init() { register(anneal{}) }

const annealLabel = 0x616e6e65616c0000 // "anneal\0\0"

// anneal searches target orders by simulated annealing over the
// load/expand decisions: each move swaps two targets' priorities, the
// energy is the trial's total stored length, and worse moves are
// accepted with the Metropolis probability exp(-dE/T) under a geometric
// cooling schedule. It starts from the greedy order and always returns
// the best order visited, so like restart it can only tie or beat the
// baseline under the strategy comparator.
type anneal struct{}

func (anneal) Name() string { return "anneal" }

// Cooling schedule: the initial temperature is a fixed fraction of the
// starting energy (so acceptance is scale-free across circuits) and
// decays geometrically per move.
const (
	annealTempFrac = 0.05
	annealCooling  = 0.85
)

func (anneal) Select(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Outcome, error) {
	e, err := newEvaluator(c, fl, t0, cfg)
	if err != nil {
		return nil, err
	}
	cur := e.greedyOrder()
	curRes, err := e.eval(cur)
	if err != nil {
		return nil, err
	}
	best := curRes
	if len(cur) < 2 {
		return &Outcome{Result: best, Winner: "anneal", Trials: e.trials}, nil
	}

	rng := xrand.New(cfg.Core.Seed).Fork(annealLabel)
	temp := annealTempFrac * float64(core.StatsOf(curRes.Set).TotalLen)
	if temp < 1 {
		temp = 1
	}
	for step := 0; step < annealSteps; step++ {
		cand := append([]int(nil), cur...)
		i := rng.Intn(len(cand))
		j := rng.Intn(len(cand) - 1)
		if j >= i {
			j++
		}
		cand[i], cand[j] = cand[j], cand[i]
		r, err := e.eval(cand)
		if err != nil {
			return nil, err
		}
		dE := float64(core.StatsOf(r.Set).TotalLen - core.StatsOf(curRes.Set).TotalLen)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/temp) {
			cur, curRes = cand, r
		}
		if better(r, best) {
			best = r
		}
		temp *= annealCooling
	}
	return &Outcome{Result: best, Winner: "anneal", Trials: e.trials}, nil
}
