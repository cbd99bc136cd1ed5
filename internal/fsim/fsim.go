// Package fsim implements sequential stuck-at fault simulation.
//
// Two engines are provided:
//
//   - Engine (constructed by New with an Options block, see options.go;
//     the convenience Run wraps it): a parallel-fault simulator packing
//     64 faulty machines per group, one per logic.Word lane, with fault
//     dropping and first-detection-time recording. Engine can carry
//     machine state across calls, which the ATPG substrate uses to
//     evaluate candidate subsequences cheaply from the current state.
//     As fault dropping thins the groups out, the engine repacks the
//     live faults into dense groups (repack.go), diverged machines
//     first, without changing any result or report order.
//   - Batch (batch.go): the candidate-parallel two-machine simulator
//     that Procedure 2 of the paper and T0 compaction run on. It finds
//     the first of up to 64 candidate stored sequences whose expansion
//     detects one fault, carrying one candidate's fault-free and faulty
//     machine per word lane, allocation-free after creation.
//
// POTrace, a dense scalar simulation of one faulty machine, serves the
// response analysis of package bist.
//
// Both engines are active-region simulators in the PROOFS tradition:
// faults are packed into groups by structural locality, each group's
// static active region (the union of its faults' fanout cones, closed
// through flip-flops — see cone.go) is precomputed, and each time unit
// only the gates whose inputs actually diverged from the fault-free
// machine are evaluated, in level order (engine.go). Everything outside
// the diverged set provably carries the broadcast fault-free value, and a
// group whose machines all agree with the fault-free machine and whose
// fault sites are not activated is skipped outright (quiescence). A group
// whose recent activity shows the cone restriction is not paying — the
// feedback-heavy circuits where most of the netlist stays active — is
// escalated to the full-netlist stepper (fullpath.go), which is exactly
// the flat pre-cone engine. The results are bit-for-bit identical to
// full-netlist evaluation in every mode — the full path doubles as the
// Options.FullEvaluation reference and differential tests prove the
// equivalence.
//
// Detection semantics are the classical pessimistic three-valued rule,
// matching the paper's fault simulator: a fault is detected at time unit u
// when some primary output has a definite binary fault-free value and the
// definite opposite value in the faulty machine; X never detects. Both
// machines start in the all-unknown state ("the circuit state is unknown
// before the application of each expanded sequence").
package fsim

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"seqbist/internal/faults"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/sim"
	"seqbist/internal/vectors"
)

// patternsApplied counts, process-wide, the input vectors (patterns) the
// simulation engines have applied: Engine counts each vector once per
// Extend/Evaluate call (simulating all live faults in parallel), and
// Batch counts serial-equivalent vectors — what one two-machine
// simulation per candidate with early exit on detection, in order up to
// the accepted one, would have applied — so the total does
// not depend on how many candidates share a pass. It is a raw
// simulation-throughput measure, not a per-fault-pair count. It feeds the
// daemon's GET /metrics observability endpoint; the counter is
// deliberately global because one process hosts one daemon, and the
// bookkeeping must not thread through every simulation call site.
var patternsApplied atomic.Int64

// PatternsApplied returns the cumulative number of input vectors applied
// by the fault-simulation engines in this process (see patternsApplied
// for the counting semantics).
func PatternsApplied() int64 { return patternsApplied.Load() }

// Undetected is the detection time reported for faults a sequence does not
// detect.
const Undetected = -1

// Result reports the outcome of fault-simulating a sequence.
type Result struct {
	// Detected[i] reports whether fault i of the input list was detected.
	Detected []bool
	// DetTime[i] is the first time unit at which fault i was detected, or
	// Undetected.
	DetTime []int
	// NumDetected counts the detected faults.
	NumDetected int
}

// Coverage returns the fraction of faults detected.
func (r Result) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 0
	}
	return float64(r.NumDetected) / float64(len(r.Detected))
}

// POTrace simulates fault f under seq from the all-unknown state and
// returns the faulty machine's primary-output values at every time unit.
// It allocates one slice per time unit; it exists for response-compaction
// analysis (package bist), not for the detection path, and evaluates the
// faulty machine densely.
func POTrace(c *netlist.Circuit, f faults.Fault, seq vectors.Sequence) [][]logic.Value {
	inj := decodeFault(c, f)
	vals := make([]logic.Value, c.NumSignals())
	state := make([]logic.Value, c.NumDFFs())
	for i := range state {
		state[i] = logic.X
	}
	var in []logic.Value
	trace := make([][]logic.Value, 0, len(seq))
	for _, vec := range seq {
		for i, pi := range c.PIs {
			vals[pi] = vec[i]
		}
		for i, ff := range c.DFFs {
			vals[ff.Q] = state[i]
		}
		if inj.stemSig >= 0 && c.Driver(inj.stemSig) < 0 {
			vals[inj.stemSig] = inj.stuck
		}
		for gi := range c.Gates {
			g := &c.Gates[gi]
			in = in[:0]
			for _, sig := range g.In {
				in = append(in, vals[sig])
			}
			if int32(gi) == inj.branchGate {
				in[inj.branchPin] = inj.stuck
			}
			v := sim.EvalGate(g.Type, in)
			if g.Out == inj.stemSig {
				v = inj.stuck
			}
			vals[g.Out] = v
		}
		po := make([]logic.Value, c.NumPOs())
		for i, sig := range c.POs {
			po[i] = vals[sig]
		}
		trace = append(trace, po)
		for i, ff := range c.DFFs {
			state[i] = vals[ff.D]
			if int32(i) == inj.branchDFF {
				state[i] = inj.stuck
			}
		}
	}
	return trace
}

// Run fault-simulates seq from the all-unknown state against the given
// fault list and returns per-fault detection results.
func Run(c *netlist.Circuit, fl []faults.Fault, seq vectors.Sequence) Result {
	return New(c, fl, Options{}).Run(seq)
}

// earlyExitStride is the number of time units Run extends between checks
// of the all-detected early-exit condition. It scales with the circuit's
// sequential depth (memoized on the Circuit): a fault needs at least that
// many cycles to traverse the state registers to an observation point, so
// shallow circuits can afford frequent checks and exit as soon as
// coverage completes, while deep circuits use longer chunks that amortize
// trace construction.
func earlyExitStride(c *netlist.Circuit) int {
	stride := 4 * (c.SequentialDepth() + 1)
	if stride < 8 {
		stride = 8
	}
	if stride > 256 {
		stride = 256
	}
	return stride
}

// group is one batch of up to 64 faults simulated bit-parallel, with the
// static simulation plan of its union active region.
type group struct {
	fault []int // indices into the fault list, one per lane
	alive uint64

	plan plan

	// Machine state, sparse: state[di] is meaningful only for the
	// flip-flop indices listed in divDFF (the flip-flops whose word
	// differs from the broadcast fault-free state); every other flip-flop
	// is implicitly at the fault-free value. In full-evaluation mode
	// (Options.FullEvaluation) and while the group is escalated, state is
	// dense.
	state  []logic.Word
	divDFF []int32

	// Escalation state (modeAuto): hotCalls counts consecutive committing
	// calls whose average activity exceeded the escalation threshold;
	// escalated groups run the full-netlist stepper with dense state until
	// they reconverge (see noteActivity).
	hotCalls  int32
	escalated bool
}

// Engine is a parallel-fault simulator that retains machine state between
// calls. Construct it with New; an Engine is not safe for concurrent use,
// but all its methods are safe to call repeatedly and in any order.
//
// New packs the fault list into groups in PackOrder. Outside the
// FullEvaluation reference mode, Evaluate and Extend first repack the
// live faults into fresh dense groups whenever they fill at most half of
// the live groups' lanes (repack.go); Reset restores the construction
// packing. Detections, detection times and divergence are per-lane, and
// newly-detected lists keep the construction packing order, so
// repacking is invisible in every result.
type Engine struct {
	c   *netlist.Circuit
	csr *netlist.CSR
	fl  []faults.Fault

	opts Options

	good      *sim.Simulator
	goodState []logic.Value
	goodPO    []logic.Value

	// Pooled non-committing good machine for Evaluate.
	peekSim   *sim.Simulator
	peekState []logic.Value
	peekPO    []logic.Value

	// entryGood snapshots the fault-free flip-flop state at the top of
	// every call, before the good machine advances: escalated groups
	// densify their sparse state against it (densifyState).
	entryGood []logic.Value

	// Pooled good-value trace, one row per time unit of the current call.
	trace goodTrace

	// groups is the current packing: initGroups (the construction
	// packing, restored by Reset) until the first repack.
	groups     []group
	initGroups []group
	liveBuf    []int

	// repacked reports that groups is no longer the construction
	// packing, so reports must be put back into construction packing
	// order through rank (fault index -> PackOrder position). rank and
	// pb are built at the first repack and kept across Reset.
	repacked bool
	rank     []int32
	pb       *planBuilder

	// sc is the propagation scratch every group is stepped through.
	sc *scratch

	// fullEval selects the full-netlist evaluation path (fullpath.go);
	// the Options.FullEvaluation reference mode.
	fullEval bool

	// estat accumulates this engine's share of the efficiency counters;
	// Engine.Stats returns a snapshot. The process-wide counters
	// (stats.go) advance in the same flushes.
	estat SimStats

	detected []bool
	detTime  []int
	numDet   int
	now      int // absolute time units simulated so far

	// stride memoizes earlyExitStride(c) for Run's chunking.
	stride int
}

// scratch holds the per-signal/gate/dff forcing masks, value words, and
// event-propagation state one simulation pass needs. The mask arrays are
// populated once per group per call (loadPlan/unloadPlan) and cleared
// afterwards, so one scratch serves every group of the Engine in turn.
type scratch struct {
	stem0, stem1 []uint64
	branchAt     [][]pinForce // per gate
	dff0, dff1   []uint64     // per DFF
	words        []logic.Word // per-signal values (valid only when stamped)
	state        []logic.Word // per-DFF state for non-committing passes
	divDFF       []int32      // diverged-DFF list for non-committing passes

	// Active-region propagation scratch (engine.go). Epoch stamps avoid
	// clearing the arrays between time units; int32 keeps the hottest
	// random-access arrays cache-dense (see bumpEpoch for wraparound).
	epoch     int32
	sigEpoch  []int32   // per signal: stamped when diverged this time unit
	gateEpoch []int32   // per gate: stamped when queued this time unit
	buckets   [][]int32 // per-level gate worklists
	maxLev    int32     // deepest level queued this time unit
	newDiv    []int32

	dets []detection // per-call detection buffer (Extend)

	// Locally accumulated efficiency counters, flushed per call
	// (stats.go).
	evaluated int64
	skipped   int64
	quiescent int64
	escalated int64
	repacked  int64
}

func newScratch(c *netlist.Circuit) *scratch {
	return &scratch{
		stem0:     make([]uint64, c.NumSignals()),
		stem1:     make([]uint64, c.NumSignals()),
		branchAt:  make([][]pinForce, c.NumGates()),
		dff0:      make([]uint64, c.NumDFFs()),
		dff1:      make([]uint64, c.NumDFFs()),
		words:     make([]logic.Word, c.NumSignals()),
		state:     make([]logic.Word, c.NumDFFs()),
		sigEpoch:  make([]int32, c.NumSignals()),
		gateEpoch: make([]int32, c.NumGates()),
		buckets:   levelBuckets(c.CSR()),
	}
}

// levelBuckets allocates the per-level gate worklists at their exact
// worst-case capacities (every gate of the level queued), carved from one
// flat backing array. push can then never grow a bucket, so event
// propagation allocates nothing after construction.
func levelBuckets(csr *netlist.CSR) [][]int32 {
	counts := make([]int32, csr.MaxLevel+1)
	for _, lev := range csr.Level {
		counts[lev]++
	}
	flat := make([]int32, len(csr.Level))
	buckets := make([][]int32, csr.MaxLevel+1)
	off := int32(0)
	for l := range buckets {
		buckets[l] = flat[off : off : off+counts[l]]
		off += counts[l]
	}
	return buckets
}

type pinForce struct {
	pin    int32
	m0, m1 uint64
}

// goodTrace is a pooled arena of per-time-unit fault-free value
// snapshots. One flat backing array is re-sliced into rows, so repeated
// Evaluate/Extend calls allocate nothing once the arena has grown to the
// longest sequence seen.
type goodTrace struct {
	rows [][]logic.Value
	flat []logic.Value
}

// ensure returns n rows of the given width, growing the arena as needed.
func (t *goodTrace) ensure(n, width int) [][]logic.Value {
	need := n * width
	if cap(t.flat) < need {
		t.flat = make([]logic.Value, need)
	}
	t.flat = t.flat[:need]
	if cap(t.rows) < n {
		t.rows = make([][]logic.Value, n)
	}
	t.rows = t.rows[:n]
	for i := range t.rows {
		t.rows[i] = t.flat[i*width : (i+1)*width]
	}
	return t.rows
}

// GroupSize is the number of faults an Engine packs into one lane group.
const GroupSize = 64

// buildGroups packs the fault list into lane groups in locality order
// (PackOrder) and precomputes each group's static active region. Each
// group's lanes are a capacity-clamped window of the packing order, and
// the groups' flip-flop state words are carved from one exact-size
// array, so construction allocates in proportion to the circuit.
func (e *Engine) buildGroups() {
	c := e.c
	order := PackOrder(c, e.fl)
	pb := newPlanBuilder(c)
	ngroups := (len(order) + GroupSize - 1) / GroupSize
	nd := c.NumDFFs()
	state := make([]logic.Word, ngroups*nd)
	for i := range state {
		state[i] = logic.AllX()
	}
	e.groups = make([]group, 0, ngroups)
	for start := 0; start < len(order); start += GroupSize {
		end := min(start+GroupSize, len(order))
		faultIdx := order[start:end:end]
		off := len(e.groups) * nd
		e.groups = append(e.groups, group{
			fault: faultIdx,
			alive: fullAlive64(len(faultIdx)),
			state: state[off : off+nd : off+nd],
			plan:  pb.build(e.fl, faultIdx),
		})
	}
	e.initGroups = e.groups
}

// loadPlan populates sc's forcing-mask arrays for g, once per call. The
// arrays are reused across groups, so unloadPlan must clear them
// afterwards. Masks are pre-merged in the plan, so loading is a straight
// copy of the sparse lists, filtered down to the group's live lanes:
// dropped faults stop forcing anything, which is what lets their groups
// reach quiescence (dead lanes can never detect — every detection and
// divergence report is masked by the live mask — so the filtering is
// invisible in the results).
func (e *Engine) loadPlan(sc *scratch, g *group) {
	alive := g.alive
	for _, sm := range g.plan.stems {
		sc.stem0[sm.sig] = sm.m0 & alive
		sc.stem1[sm.sig] = sm.m1 & alive
	}
	for _, b := range g.plan.branches {
		if m0, m1 := b.m0&alive, b.m1&alive; m0|m1 != 0 {
			sc.branchAt[b.gate] = append(sc.branchAt[b.gate], pinForce{pin: b.pin, m0: m0, m1: m1})
		}
	}
	for _, df := range g.plan.dffForce {
		sc.dff0[df.dff] = df.m0 & alive
		sc.dff1[df.dff] = df.m1 & alive
	}
}

func (e *Engine) unloadPlan(sc *scratch, g *group) {
	for _, sm := range g.plan.stems {
		sc.stem0[sm.sig] = 0
		sc.stem1[sm.sig] = 0
	}
	for _, b := range g.plan.branches {
		sc.branchAt[b.gate] = sc.branchAt[b.gate][:0]
	}
	for _, df := range g.plan.dffForce {
		sc.dff0[df.dff] = 0
		sc.dff1[df.dff] = 0
	}
}

func forceWord(w logic.Word, m0, m1 uint64) logic.Word {
	if m0 != 0 {
		w = w.ForceValue(m0, logic.Zero)
	}
	if m1 != 0 {
		w = w.ForceValue(m1, logic.One)
	}
	return w
}

// goodTraceCommit advances the good machine through seq (committing its
// state) and snapshots the full signal-value vector at every time unit
// into the pooled trace arena.
func (e *Engine) goodTraceCommit(seq vectors.Sequence) [][]logic.Value {
	rows := e.trace.ensure(len(seq), e.c.NumSignals())
	for u, vec := range seq {
		e.good.Step(e.goodState, vec, e.goodPO)
		copy(rows[u], e.good.Values())
	}
	return rows
}

// goodTracePeek is goodTraceCommit without committing: the good machine
// state is copied and the pooled peek simulator advances the copy.
func (e *Engine) goodTracePeek(seq vectors.Sequence) [][]logic.Value {
	rows := e.trace.ensure(len(seq), e.c.NumSignals())
	copy(e.peekState, e.goodState)
	for u, vec := range seq {
		e.peekSim.Step(e.peekState, vec, e.peekPO)
		copy(rows[u], e.peekSim.Values())
	}
	return rows
}

// detection locates one newly detected fault: relative time unit u,
// group index gi, lane within the group, and pos, the fault's position
// in the construction packing order (packPos), which orders reports
// within a time unit.
type detection struct {
	u, gi, lane, pos int
}

// packPos returns the construction packing position of lane of group
// gi. Until the engine repacks, that is the group-major lane number.
func (e *Engine) packPos(gi, lane int) int {
	if !e.repacked {
		return gi*GroupSize + lane
	}
	return int(e.rank[e.groups[gi].fault[lane]])
}

// Extend simulates the vectors of seq (continuing from the current state),
// commits the resulting machine states, and returns the indices of newly
// detected faults, ordered by detection time and then by construction
// packing order (PackOrder). Detected faults are dropped from future
// simulation.
func (e *Engine) Extend(seq vectors.Sequence) []int {
	patternsApplied.Add(int64(len(seq)))
	e.estat.PatternsApplied += int64(len(seq))
	if len(seq) == 0 {
		return nil
	}
	e.repackIfSparse()
	copy(e.entryGood, e.goodState)
	goodVals := e.goodTraceCommit(seq)
	sc := e.sc
	sc.dets = sc.dets[:0]
	for _, gi := range e.liveGroups() {
		e.extendGroup(sc, &e.groups[gi], gi, seq, goodVals)
	}
	newly := e.mergeDetections(sc.dets, len(seq))
	sc.dets = sc.dets[:0]
	sc.flushInto(e)
	return newly
}

// extendGroup simulates seq for one group, committing its state words and
// appending its detections (in relative time order) to sc.dets.
func (e *Engine) extendGroup(sc *scratch, g *group, gi int, seq vectors.Sequence, goodVals [][]logic.Value) {
	e.loadPlan(sc, g)
	alive := g.alive
	full := e.fullEval
	if g.escalated && !full {
		e.densifyState(g.state, g.divDFF, alive)
		full = true
	}
	evalBefore := sc.evaluated
	steps := 0
	var detAll uint64
	for u := range seq {
		var det uint64
		if full {
			det = e.stepGroupFull(sc, g, seq[u], goodVals[u], g.state)
		} else {
			det = e.stepGroup(sc, g, goodVals[u], g.state, &g.divDFF)
		}
		det = det & alive &^ detAll
		for m := det; m != 0; {
			lane := trailingZeros(m)
			m &^= 1 << uint(lane)
			sc.dets = append(sc.dets, detection{u: u, gi: gi, lane: lane, pos: e.packPos(gi, lane)})
		}
		detAll |= det
		steps = u + 1
		if alive&^detAll == 0 {
			// Every lane of this group is detected; further vectors
			// cannot change its outcome.
			break
		}
	}
	e.unloadPlan(sc, g)
	if g.escalated && !e.fullEval {
		// Convert the dense state back to the sparse representation
		// against the good flip-flop values after the last stepped unit;
		// a reconverged group de-escalates.
		e.sparsifyState(g, goodVals[steps-1], alive)
		if len(g.divDFF) == 0 {
			g.escalated = false
			g.hotCalls = 0
		}
	} else if !e.fullEval {
		e.noteActivity(sc, g, sc.evaluated-evalBefore, steps)
	}
}

// Escalation thresholds (modeAuto): a group escalates to
// the full-netlist stepper when its region spans at least
// escRegionNum/escRegionDen of the netlist AND its measured activity
// (gates evaluated per time unit) stays above escActivityNum/
// escActivityDen of the region for escalateAfter consecutive committing
// calls. Only then is the flat full walk — no event queue, no lazy
// input reads, no sparse capture, no per-unit quiescence probing —
// cheaper than the region engine; for small regions the cone restriction
// always wins.
const (
	escRegionNum, escRegionDen     = 3, 4
	escActivityNum, escActivityDen = 1, 4
	escalateAfter                  = 2
)

// noteActivity updates the group's escalation predictor after a
// committing region-engine call that evaluated the given gate count over
// the given number of time units.
func (e *Engine) noteActivity(sc *scratch, g *group, evaluated int64, steps int) {
	if e.opts.mode != modeAuto || steps == 0 {
		return
	}
	region := len(g.plan.gates)
	if region*escRegionDen < e.c.NumGates()*escRegionNum {
		return
	}
	if evaluated*escActivityDen >= int64(region)*int64(steps)*escActivityNum {
		g.hotCalls++
		if g.hotCalls >= escalateAfter && !g.escalated {
			g.escalated = true
			sc.escalated++
		}
	} else {
		g.hotCalls = 0
	}
}

// densifyState converts a group's sparse state (state words valid only at
// divDFF entries, everything else implicitly fault-free) into the dense
// representation the full-netlist stepper reads, pinning dead lanes to
// the fault-free value. entryGood holds the fault-free flip-flop values
// at the start of the current call.
func (e *Engine) densifyState(state []logic.Word, divDFF []int32, alive uint64) {
	j := 0
	for di := range state {
		bg := bcast[e.entryGood[di]]
		if j < len(divDFF) && int(divDFF[j]) == di {
			state[di] = mixAlive(state[di], bg, alive)
			j++
		} else {
			state[di] = bg
		}
	}
}

// sparsifyState rebuilds a group's sparse diverged-DFF list from its
// dense state words against the fault-free values of the last simulated
// time unit (goodRow), pinning dead lanes so dropped faults go inert.
func (e *Engine) sparsifyState(g *group, goodRow []logic.Value, alive uint64) {
	g.divDFF = g.divDFF[:0]
	for di := range g.state {
		bg := bcast[goodRow[e.c.DFFs[di].D]]
		w := mixAlive(g.state[di], bg, alive)
		if w != bg {
			g.state[di] = w
			g.divDFF = append(g.divDFF, int32(di))
		}
	}
}

// mergeDetections commits collected detections in the canonical reporting
// order — ascending time unit, then construction packing order — updating
// the per-fault records and dropping detected lanes. It advances e.now by
// seqLen and returns the newly detected fault indices.
func (e *Engine) mergeDetections(dets []detection, seqLen int) []int {
	slices.SortFunc(dets, func(a, b detection) int {
		if a.u != b.u {
			return a.u - b.u
		}
		return a.pos - b.pos
	})
	var newly []int
	for _, d := range dets {
		g := &e.groups[d.gi]
		fi := g.fault[d.lane]
		g.alive &^= 1 << uint(d.lane)
		e.detected[fi] = true
		e.detTime[fi] = e.now + d.u
		e.numDet++
		newly = append(newly, fi)
	}
	e.now += seqLen
	return newly
}

// Evaluate simulates seq from the current state without committing any
// state or detection bookkeeping, and returns the indices of live faults
// that seq would newly detect. Its second result is a search heuristic:
// divergence counts the live
// undetected faults whose machine state, after seq, definitely differs
// from the fault-free state in at least one flip-flop. Simulation-based
// test generators (the GA fitness of STRATEGATE and relatives) use this
// as a secondary objective — a candidate that drives fault effects into
// the state brings those faults closer to detection even when it detects
// nothing itself.
//
// newly lists the faults in construction packing order (PackOrder).
//
// Evaluate is the ATPG inner loop and is allocation-free in the steady
// state: the good-value trace, the peek simulator, and all propagation
// scratch are pooled on the Engine; only a nonempty newly slice (and a
// repack, when fault dropping has thinned the groups out) allocates.
func (e *Engine) Evaluate(seq vectors.Sequence) (newly []int, divergence int) {
	patternsApplied.Add(int64(len(seq)))
	e.estat.PatternsApplied += int64(len(seq))
	if len(seq) == 0 {
		return nil, 0
	}
	e.repackIfSparse()
	copy(e.entryGood, e.goodState)
	goodVals := e.goodTracePeek(seq)
	for _, gi := range e.liveGroups() {
		g := &e.groups[gi]
		detAll := e.evaluateGroup(e.sc, g, seq, goodVals, &divergence)
		for detAll != 0 {
			lane := trailingZeros(detAll)
			detAll &^= 1 << uint(lane)
			newly = append(newly, g.fault[lane])
		}
	}
	if e.repacked {
		rank := e.rank
		slices.SortFunc(newly, func(a, b int) int { return int(rank[a]) - int(rank[b]) })
	}
	e.sc.flushInto(e)
	return newly, divergence
}

// evaluateGroup simulates seq for one group without committing state,
// using sc's state buffer, and returns the mask of newly detected lanes.
// It adds the group's divergence contribution to *divergence.
func (e *Engine) evaluateGroup(sc *scratch, g *group, seq vectors.Sequence, goodVals [][]logic.Value, divergence *int) uint64 {
	full := e.fullEval || g.escalated
	if e.fullEval {
		copy(sc.state, g.state)
	} else if g.escalated {
		// Non-committing densification: expand the sparse state into the
		// scratch state buffer, leaving the group's own words untouched.
		copy(sc.state, g.state)
		e.densifyState(sc.state, g.divDFF, g.alive)
	} else {
		sc.divDFF = sc.divDFF[:0]
		for _, di := range g.divDFF {
			sc.state[di] = g.state[di]
			sc.divDFF = append(sc.divDFF, di)
		}
	}
	alive := g.alive
	detAll := uint64(0)
	e.loadPlan(sc, g)
	steps := 0
	for u := range seq {
		var det uint64
		if full {
			det = e.stepGroupFull(sc, g, seq[u], goodVals[u], sc.state)
		} else {
			det = e.stepGroup(sc, g, goodVals[u], sc.state, &sc.divDFF)
		}
		det = det & alive &^ detAll
		detAll |= det
		steps = u + 1
		if alive&^detAll == 0 {
			break
		}
	}
	e.unloadPlan(sc, g)
	// Divergence: undetected live lanes whose state definitely differs
	// from the fault-free state after the last simulated vector.
	if steps == len(seq) && len(seq) > 0 {
		var diverged uint64
		goodFinal := goodVals[len(seq)-1]
		if full {
			for di, ff := range e.c.DFFs {
				switch goodFinal[ff.D] {
				case logic.Zero:
					diverged |= sc.state[di].DefiniteOne()
				case logic.One:
					diverged |= sc.state[di].DefiniteZero()
				}
			}
		} else {
			// Flip-flops outside the diverged list equal the fault-free
			// state and cannot contribute.
			for _, di := range sc.divDFF {
				ff := e.c.DFFs[di]
				switch goodFinal[ff.D] {
				case logic.Zero:
					diverged |= sc.state[di].DefiniteOne()
				case logic.One:
					diverged |= sc.state[di].DefiniteZero()
				}
			}
		}
		*divergence += popcount(diverged & alive &^ detAll)
	}
	return detAll
}

// popcount returns the number of set bits in x.
func popcount(x uint64) int { return bits.OnesCount64(x) }

// Result snapshots the detection state accumulated so far.
func (e *Engine) Result() Result {
	det := make([]bool, len(e.detected))
	copy(det, e.detected)
	dt := make([]int, len(e.detTime))
	copy(dt, e.detTime)
	return Result{Detected: det, DetTime: dt, NumDetected: e.numDet}
}

// NumDetected returns the number of faults detected so far.
func (e *Engine) NumDetected() int { return e.numDet }

// Now returns the number of time units simulated so far.
func (e *Engine) Now() int { return e.now }

// liveGroups returns the indices of groups that still carry undetected
// faults. The returned slice is pooled on the Engine and valid until the
// next call.
func (e *Engine) liveGroups() []int {
	live := e.liveBuf[:0]
	for gi := range e.groups {
		if e.groups[gi].alive != 0 {
			live = append(live, gi)
		}
	}
	e.liveBuf = live
	return live
}

// trailingZeros returns the index of the lowest set bit of x (x != 0).
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
