package fsim

// The Engine options surface. One constructor, one options block: the
// worker count and the full-evaluation reference path are fixed at
// construction, so an Engine's behavior never changes under a caller's
// feet and its methods are safe to call repeatedly in any order.

import (
	"fmt"

	"seqbist/internal/faults"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/sim"
	"seqbist/internal/vectors"
)

// propMode selects how the active-region engine treats hot groups. Only
// the differential tests pin a mode; production engines always run
// modeAuto.
type propMode int

const (
	// modeAuto propagates every group event-driven and escalates
	// persistently hot whole-netlist groups to the flat full stepper.
	modeAuto propMode = iota
	// modeQueue never escalates: every step runs event-driven
	// level-ordered propagation.
	modeQueue
)

// Options configures an Engine. The zero value is the default
// configuration: serial, active-region propagation with escalation. Every Engine packs 64
// faulty machines per group, one per bit of a uint64 word.
type Options struct {
	// Workers is the goroutine count for the cone-sharded group
	// scheduler; 0 or 1 selects the serial path. Any value produces
	// bit-for-bit identical detection results.
	Workers int

	// FullEvaluation selects the flat full-netlist reference path
	// (fullpath.go) instead of the active-region engine: every gate, every
	// group, every time unit. It is the differential-testing reference.
	FullEvaluation bool

	// mode is the test hook that switches escalation off.
	mode propMode
}

// normalize validates opts and fills defaults. It panics on option
// combinations that have no meaning — misconfiguration is a programming
// error, not a runtime condition.
func (o Options) normalize() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.mode != modeAuto && o.mode != modeQueue {
		panic(fmt.Sprintf("fsim: unknown propagation mode %d", int(o.mode)))
	}
	return o
}

// New prepares an Engine for the given circuit and fault list. The
// initial state of every machine is all-unknown. Faults are packed into
// lane groups in locality order (packOrder), and each group's static
// active region is precomputed, so construction does the cone analysis
// once and every Run/Extend/Evaluate call benefits.
func New(c *netlist.Circuit, fl []faults.Fault, opts Options) *Engine {
	opts = opts.normalize()
	e := &Engine{
		c:         c,
		csr:       c.CSR(),
		fl:        fl,
		opts:      opts,
		sc:        newScratch(c),
		good:      sim.New(c),
		goodPO:    make([]logic.Value, c.NumPOs()),
		peekSim:   sim.New(c),
		peekPO:    make([]logic.Value, c.NumPOs()),
		workers:   opts.Workers,
		fullEval:  opts.FullEvaluation,
		detected:  make([]bool, len(fl)),
		detTime:   make([]int, len(fl)),
		entryGood: make([]logic.Value, c.NumDFFs()),
	}
	e.goodState = e.good.InitialState()
	e.peekState = make([]logic.Value, c.NumDFFs())
	e.stride = earlyExitStride(c)
	for i := range e.detTime {
		e.detTime[i] = Undetected
	}
	e.buildGroups()
	return e
}

// Run simulates seq from the all-unknown initial state and returns the
// per-fault detection results. Any state carried from earlier calls is
// reset first, so Run is safe to call repeatedly — each call is an
// independent whole-sequence simulation reusing the engine's plans and
// buffers. Extension is chunked with an early exit: once every fault is
// detected the rest of the sequence cannot change the Result (see
// earlyExitStride).
func (e *Engine) Run(seq vectors.Sequence) Result {
	e.Reset()
	chunk := e.stride
	for start := 0; start < len(seq); start += chunk {
		if e.numDet == len(e.fl) {
			break
		}
		end := start + chunk
		if end > len(seq) {
			end = len(seq)
		}
		e.Extend(seq[start:end])
	}
	return e.Result()
}

// Reset returns the engine to its initial state: all machines all-unknown,
// no faults detected, time zero. Plans, shards, and pooled buffers are
// retained. The cumulative Stats are not reset.
func (e *Engine) Reset() {
	for i := range e.goodState {
		e.goodState[i] = logic.X
	}
	for i := range e.detected {
		e.detected[i] = false
		e.detTime[i] = Undetected
	}
	e.numDet = 0
	e.now = 0
	for gi := range e.groups {
		g := &e.groups[gi]
		g.alive = fullAlive64(len(g.fault))
		for i := range g.state {
			g.state[i] = logic.AllX()
		}
		g.divDFF = g.divDFF[:0]
		g.hotCalls = 0
		g.escalated = false
	}
	// Detection dropped groups from the shards' balance; force a rebuild.
	e.shards = nil
	e.shardLive = 0
}

// fullAlive64 returns the live mask for n lanes in one word (n <= 64).
func fullAlive64(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// Stats returns the cumulative simulation-efficiency counters accumulated
// by this engine (across Reset calls). The process-wide aggregate over
// all engines is the package-level Stats.
func (e *Engine) Stats() SimStats { return e.estat }
