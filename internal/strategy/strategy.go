// Package strategy packages competing subsequence-synthesis strategies
// behind one interface, the named-recipe pattern: each Strategy searches
// the space of Procedure 1 target orders (which order yields which
// stored set is the degree of freedom the paper's greedy heuristic fixes
// a priori) and returns the best selection it found. The registry holds
//
//   - greedy:  the paper baseline — Procedure 1 exactly as in
//     internal/core, bit-identical to core.Select;
//   - restart: seeded random-restart greedy over shuffled target orders;
//   - anneal:  simulated annealing over target orders with swap moves
//     and Metropolis acceptance;
//   - genetic: a small permutation GA (order crossover + swap mutation)
//     over target orders, à la Skobtsov's evolutionary functional BIST;
//   - race:    the meta-strategy that runs every concrete strategy and
//     keeps the cheapest stored set (core.Stats.Less).
//
// Every strategy is deterministic given Config.Core.Seed: all randomness
// flows from seeded xrand streams, and each evaluated order reseeds
// Procedure 2's omission stream as a pure function of (seed, order), so
// a trial's outcome is independent of the order trials run in. Coverage
// is invariant across strategies — every target order covers exactly the
// faults T0 detects (core.RunOrder's guarantee) — so the contest is
// storage cost: total stored length, then longest stored sequence, then
// sequence count.
package strategy

import (
	"fmt"
	"sort"
	"strings"

	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// Well-known strategy names.
const (
	// Default is the paper-baseline strategy applied when a submission
	// names none.
	Default = "greedy"
	// Race is the meta-strategy that runs the whole concrete portfolio
	// and keeps the best result.
	Race = "race"
)

// Config parameterizes one strategy run.
type Config struct {
	// Core is the Procedure 1/2 configuration every trial runs under
	// (N, Seed, omission budget, parallelism, Interrupt). Seed is the
	// root of all strategy randomness.
	Core core.Config
	// SkipCompact tells comparison-based strategies (race) to score
	// candidates without §3.2 compaction, mirroring the pipeline flag so
	// the race is judged by the same numbers the pipeline reports.
	SkipCompact bool
}

// Search sizes of the non-greedy strategies, chosen so each costs a
// bounded multiple of one greedy run.
const (
	// restartTrials is restart's trial count, including the greedy-order
	// baseline trial.
	restartTrials = 4
	// geneticPopulation and geneticGenerations size genetic's search.
	geneticPopulation  = 6
	geneticGenerations = 4
	// annealSteps is anneal's move count.
	annealSteps = 24
)

// Outcome is what a strategy returns: the winning (pre-compaction)
// selection plus provenance. The pipeline compacts Result exactly as it
// would a plain core.Select result.
type Outcome struct {
	// Result is the best selection found.
	Result *core.Result
	// Winner names the concrete strategy that produced Result. For the
	// concrete strategies it is their own name; for race it identifies
	// the leg that won.
	Winner string
	// Trials counts full Procedure 1 runs evaluated (greedy: 1).
	Trials int
}

// Strategy is one named synthesis recipe.
type Strategy interface {
	// Name is the registry key ("greedy", "genetic", ...).
	Name() string
	// Select searches for a subsequence set of t0 covering every fault
	// t0 detects. It propagates core.ErrInterrupted promptly when
	// cfg.Core.Interrupt fires.
	Select(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Outcome, error)
}

var registry = make(map[string]Strategy)

func register(s Strategy) { registry[s.Name()] = s }

// Get resolves a strategy by name; empty means Default.
func Get(name string) (Strategy, error) {
	if name == "" {
		name = Default
	}
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("strategy: unknown strategy %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Valid reports whether name names a registered strategy (empty counts:
// it resolves to Default).
func Valid(name string) bool {
	if name == "" {
		return true
	}
	_, ok := registry[name]
	return ok
}

// Names lists every registered strategy, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Concrete lists the strategies a race runs, in portfolio order — the
// order that also breaks score ties, so the paper baseline wins any
// draw. The service fans a sweep-level race out as one job per entry.
func Concrete() []string { return []string{"greedy", "restart", "anneal", "genetic"} }

// permSeed derives the omission-stream seed for one evaluated target
// order as a pure function of (seed, order): the same order always
// replays the same Procedure 2 randomness no matter when a strategy
// tries it, which is what makes trial outcomes memoizable and the whole
// search order-independent. The mixer is SplitMix64's finalizer.
func permSeed(seed uint64, order []int) uint64 {
	h := seed ^ 0x51a7e9b15d0c6f3d
	mix := func(v uint64) {
		h += v + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	for _, p := range order {
		mix(uint64(p) + 1)
	}
	mix(uint64(len(order)))
	return h
}

// better reports whether a strictly beats b under core.Stats.Less.
func better(a, b *core.Result) bool {
	return core.StatsOf(a.Set).Less(core.StatsOf(b.Set))
}

// evaluator runs Procedure 1 trials over target orders on one shared
// Selector (the T0 base simulation is paid once) and memoizes each
// order's outcome, so revisiting a genotype costs nothing.
type evaluator struct {
	sel    *core.Selector
	seed   uint64
	cache  map[uint64]*core.Result
	trials int
}

func newEvaluator(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*evaluator, error) {
	sel, err := core.NewSelector(c, fl, t0, cfg.Core)
	if err != nil {
		return nil, err
	}
	return &evaluator{sel: sel, seed: cfg.Core.Seed, cache: make(map[uint64]*core.Result)}, nil
}

// eval runs one trial with the given target order.
func (e *evaluator) eval(order []int) (*core.Result, error) {
	key := permSeed(e.seed, order)
	if r, ok := e.cache[key]; ok {
		return r, nil
	}
	e.sel.Reseed(key)
	r, err := e.sel.RunOrder(order)
	if err != nil {
		return nil, err
	}
	e.trials++
	e.cache[key] = r
	return r, nil
}

// greedyOrder is the paper's target order — highest first-detection time
// first, fault index breaking ties — which seeds every search.
func (e *evaluator) greedyOrder() []int {
	targets, detTime := e.sel.Targets()
	order := append([]int(nil), targets...)
	sort.Slice(order, func(a, b int) bool {
		if detTime[order[a]] != detTime[order[b]] {
			return detTime[order[a]] > detTime[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}
