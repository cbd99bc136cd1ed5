// Package atpg generates deterministic test sequences (T0) for synchronous
// sequential circuits by simulation-based search.
//
// It substitutes for STRATEGATE [11 in the paper], the genetic-algorithm
// test generator whose sequences the paper uses as T0. The substitute
// keeps the same contract — produce a single test sequence, applied from
// the all-unknown state, achieving high stuck-at coverage, with recorded
// first-detection times — using the same building blocks the GA evolves:
//
//   - pools of candidate subsequences evaluated by fault simulation from
//     the current circuit state (fsim.Engine.Evaluate);
//   - pure-random candidates, random-walk candidates (bit flips from the
//     previous vector), and vector-hold candidates (each vector repeated
//     for several time units, the manipulation of reference [3] that aids
//     synchronization of state machines);
//   - greedy extension by the best candidate, fault dropping, and
//     stagnation-driven growth of the candidate length.
//
// Generation is deterministic given Config.Seed.
package atpg

import (
	"errors"
	"fmt"

	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// Config tunes the generator. The zero value is usable: Defaults are
// applied by Generate.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// PoolSize is the number of candidate subsequences per round.
	PoolSize int
	// InitLen is the initial candidate length.
	InitLen int
	// MaxCandLen caps candidate growth under stagnation.
	MaxCandLen int
	// StaleRounds is the number of consecutive zero-detection rounds at
	// maximum candidate length after which generation stops.
	StaleRounds int
	// MaxLen caps the total sequence length (0 = unlimited).
	MaxLen int
	// MaxExploreStreak bounds consecutive extensions that detect nothing
	// but improve state divergence (the exploration moves of the GA).
	MaxExploreStreak int
	// Interrupt, when non-nil, is polled once per round, before the
	// round's candidates are built. When it returns true, generation
	// stops with ErrInterrupted. The service layer uses this to cancel
	// in-flight jobs promptly.
	Interrupt func() bool
}

// ErrInterrupted is returned by Generate when Config.Interrupt fired.
var ErrInterrupted = errors.New("atpg: generation interrupted")

func (cfg *Config) applyDefaults() {
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 12
	}
	if cfg.InitLen == 0 {
		cfg.InitLen = 8
	}
	if cfg.MaxCandLen == 0 {
		cfg.MaxCandLen = 256
	}
	if cfg.StaleRounds == 0 {
		cfg.StaleRounds = 4
	}
	if cfg.MaxExploreStreak == 0 {
		cfg.MaxExploreStreak = 3
	}
}

// Result is the generated sequence with its fault-simulation record.
type Result struct {
	Seq         vectors.Sequence
	Detected    []bool
	DetTime     []int
	NumDetected int
	Rounds      int
	// Sim is the generator's fault-simulation engine's counters
	// (fsim.Engine.Stats).
	Sim fsim.SimStats
}

// Coverage returns the fraction of the fault list detected.
func (r *Result) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 0
	}
	return float64(r.NumDetected) / float64(len(r.Detected))
}

// Generate produces a test sequence for the fault list fl of circuit c.
func Generate(c *netlist.Circuit, fl []faults.Fault, cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if c.NumPIs() == 0 {
		return nil, fmt.Errorf("atpg: circuit %s has no primary inputs", c.Name)
	}
	rng := xrand.New(cfg.Seed ^ 0xa7e65d3c0fd2b1e9)
	inc := fsim.New(c, fl, fsim.Options{})
	var t0 vectors.Sequence

	candLen := cfg.InitLen
	stale := 0
	rounds := 0
	exploreStreak := 0
	var last vectors.Vector

	// The inner loop — build a candidate, Evaluate it, occasionally
	// Extend by the winner — runs thousands of times per circuit, so all
	// candidate vectors come from a reusable pool (one buffer per pool
	// slot, all carved from one backing array) and Evaluate itself pools
	// its good-trace snapshots; the loop allocates only when a winning
	// candidate is committed into T0. The pooled builders consume exactly
	// the random stream of the old allocating builders, so generated
	// sequences are bit-identical.
	pool := newCandPool(cfg.PoolSize, c.NumPIs(), max(cfg.InitLen, cfg.MaxCandLen))

	for inc.NumDetected() < len(fl) {
		if cfg.MaxLen > 0 && t0.Len() >= cfg.MaxLen {
			break
		}
		if cfg.Interrupt != nil && cfg.Interrupt() {
			return nil, ErrInterrupted
		}
		rounds++
		var best vectors.Sequence
		bestCount, bestDiv := 0, -1
		for p := 0; p < cfg.PoolSize; p++ {
			cand := pool.makeCandidate(rng, p, candLen, last)
			if cfg.MaxLen > 0 && t0.Len()+cand.Len() > cfg.MaxLen {
				cand = cand[:cfg.MaxLen-t0.Len()]
				if cand.Len() == 0 {
					continue
				}
			}
			newly, div := inc.Evaluate(cand)
			if len(newly) > bestCount || (len(newly) == bestCount && div > bestDiv) {
				bestCount, bestDiv = len(newly), div
				best = cand
			}
		}
		accept := bestCount > 0
		if !accept && bestDiv > 0 && exploreStreak < cfg.MaxExploreStreak {
			// Exploration move: nothing detected, but the best candidate
			// drives fault effects into the state machine.
			exploreStreak++
			accept = true
		} else if accept {
			stale, exploreStreak = 0, 0
		}
		if accept {
			inc.Extend(best)
			// Deep-copy the winner out of its pool buffer: the buffer is
			// overwritten next round, while T0 is long-lived.
			for _, v := range best {
				t0 = append(t0, v.Clone())
			}
			last = t0[len(t0)-1]
			continue
		}
		if candLen < cfg.MaxCandLen {
			candLen *= 2
			if candLen > cfg.MaxCandLen {
				candLen = cfg.MaxCandLen
			}
			exploreStreak = 0
			continue
		}
		stale++
		exploreStreak = 0
		if stale >= cfg.StaleRounds {
			break
		}
	}

	res := inc.Result()
	return &Result{
		Seq:         t0,
		Detected:    res.Detected,
		DetTime:     res.DetTime,
		NumDetected: res.NumDetected,
		Rounds:      rounds,
		Sim:         inc.Stats(),
	}, nil
}

// candPool owns one preallocated candidate buffer per pool slot plus a
// scratch vector for the walk strategy. Buffers are overwritten in place
// every round; winners must be copied out before the next round.
type candPool struct {
	width int
	bufs  []vectors.Sequence
	cur   vectors.Vector
}

// newCandPool carves poolSize buffers of maxLen vectors each from one
// backing array, so the number of allocations does not grow with the
// pool's size.
func newCandPool(poolSize, width, maxLen int) *candPool {
	cp := &candPool{width: width, cur: make(vectors.Vector, width)}
	cp.bufs = make([]vectors.Sequence, poolSize)
	vals := make([]logic.Value, poolSize*maxLen*width)
	rows := make([]vectors.Vector, poolSize*maxLen)
	for i := range rows {
		rows[i] = vals[i*width : (i+1)*width : (i+1)*width]
	}
	for p := range cp.bufs {
		cp.bufs[p] = rows[p*maxLen : (p+1)*maxLen : (p+1)*maxLen]
	}
	return cp
}

// makeCandidate builds one candidate subsequence into pool slot p's
// buffer. The pool index selects the strategy so every round mixes all
// four kinds.
func (cp *candPool) makeCandidate(rng *xrand.RNG, p, length int, last vectors.Vector) vectors.Sequence {
	buf := cp.bufs[p][:length]
	switch p % 4 {
	case 0:
		for i := range buf {
			vectors.FillRandom(rng, buf[i])
		}
	case 1:
		cp.walkCandidate(rng, buf, last)
	case 2:
		cp.holdCandidate(rng, buf)
	default:
		cp.constantProbe(rng, buf)
	}
	return buf
}

// constantProbe holds a constant vector (all-ones or all-zeros) for a few
// time units and then continues randomly. Constant bursts are cheap
// synchronizing-sequence probes: many circuits (including the synthetic
// benchmarks and reset-style designs) reach a known state under a held
// constant input.
func (cp *candPool) constantProbe(rng *xrand.RNG, buf vectors.Sequence) {
	bit := 0
	if rng.Bool() {
		bit = 1
	}
	hold := 1 + rng.Intn(4)
	i := 0
	for ; i < hold && i < len(buf); i++ {
		for k := range buf[i] {
			buf[i][k] = logic.FromBit(bit)
		}
	}
	for ; i < len(buf); i++ {
		vectors.FillRandom(rng, buf[i])
	}
}

// walkCandidate starts from the last applied vector (or a random one) and
// flips 1-2 random bits per time unit, exploring nearby states.
func (cp *candPool) walkCandidate(rng *xrand.RNG, buf vectors.Sequence, last vectors.Vector) {
	if last == nil {
		vectors.FillRandom(rng, cp.cur)
	} else {
		copy(cp.cur, last)
	}
	for i := range buf {
		flips := 1 + rng.Intn(2)
		for f := 0; f < flips; f++ {
			pos := rng.Intn(cp.width)
			cp.cur[pos] = cp.cur[pos].Not()
		}
		copy(buf[i], cp.cur)
	}
}

// holdCandidate applies random vectors, each held for 2-8 time units (the
// hold manipulation of reference [3], which helps synchronize flip-flops
// through an unknown state).
func (cp *candPool) holdCandidate(rng *xrand.RNG, buf vectors.Sequence) {
	i := 0
	for i < len(buf) {
		vectors.FillRandom(rng, cp.cur)
		hold := 2 + rng.Intn(7)
		for h := 0; h < hold && i < len(buf); h++ {
			copy(buf[i], cp.cur)
			i++
		}
	}
}
