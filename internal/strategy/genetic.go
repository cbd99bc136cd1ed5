package strategy

import (
	"sort"

	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

func init() { register(genetic{}) }

const geneticLabel = 0x67656e6574696300 // "genetic\0"

// geneticMutateProb is the per-child probability of one extra swap
// mutation after crossover.
const geneticMutateProb = 0.3

// genetic evolves a small population of target orders, following the
// evolutionary functional-BIST approach of Skobtsov et al. (PAPERS.md):
// the genotype is a permutation of the targeted faults, fitness is the
// storage cost of the selected set, survivors are the cheaper half, and
// children come from order crossover (OX) of two elite parents plus an
// occasional swap mutation. The greedy order seeds the population, so
// the search never returns anything worse than the baseline under the
// strategy comparator.
type genetic struct{}

func (genetic) Name() string { return "genetic" }

type indiv struct {
	order []int
	res   *core.Result
}

func (genetic) Select(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Outcome, error) {
	e, err := newEvaluator(c, fl, t0, cfg)
	if err != nil {
		return nil, err
	}
	base := e.greedyOrder()
	baseRes, err := e.eval(base)
	if err != nil {
		return nil, err
	}
	if len(base) < 2 {
		return &Outcome{Result: baseRes, Winner: "genetic", Trials: e.trials}, nil
	}

	rng := xrand.New(cfg.Core.Seed).Fork(geneticLabel)
	pop := []indiv{{order: base, res: baseRes}}
	for len(pop) < geneticPopulation {
		p := append([]int(nil), base...)
		rng.Shuffle(p)
		r, err := e.eval(p)
		if err != nil {
			return nil, err
		}
		pop = append(pop, indiv{order: p, res: r})
	}
	// Stable sort keeps insertion order on fitness ties, so evolution is
	// deterministic.
	rank := func() {
		sort.SliceStable(pop, func(a, b int) bool { return better(pop[a].res, pop[b].res) })
	}
	rank()

	for gen := 0; gen < geneticGenerations; gen++ {
		elite := (len(pop) + 1) / 2
		next := append([]indiv(nil), pop[:elite]...)
		for len(next) < geneticPopulation {
			pa := pop[rng.Intn(elite)].order
			pb := pop[rng.Intn(elite)].order
			child := orderCrossover(pa, pb, rng)
			if rng.Float64() < geneticMutateProb {
				i := rng.Intn(len(child))
				j := rng.Intn(len(child) - 1)
				if j >= i {
					j++
				}
				child[i], child[j] = child[j], child[i]
			}
			r, err := e.eval(child)
			if err != nil {
				return nil, err
			}
			next = append(next, indiv{order: child, res: r})
		}
		pop = next
		rank()
	}
	return &Outcome{Result: pop[0].res, Winner: "genetic", Trials: e.trials}, nil
}

// orderCrossover is the classic OX operator for permutations: the child
// inherits pa's segment [l, r] in place and fills the remaining
// positions with pb's genes in pb's order, skipping duplicates.
func orderCrossover(pa, pb []int, rng *xrand.RNG) []int {
	n := len(pa)
	l := rng.Intn(n)
	r := rng.Intn(n)
	if l > r {
		l, r = r, l
	}
	child := make([]int, n)
	taken := make(map[int]bool, r-l+1)
	for i := l; i <= r; i++ {
		child[i] = pa[i]
		taken[pa[i]] = true
	}
	pos := 0
	for _, g := range pb {
		if taken[g] {
			continue
		}
		for pos >= l && pos <= r {
			pos++
		}
		if pos >= n {
			break
		}
		child[pos] = g
		pos++
	}
	return child
}
