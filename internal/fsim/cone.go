package fsim

// Fault-cone analysis and locality-aware fault packing.
//
// A stuck-at fault can only ever make a lane diverge from the fault-free
// machine inside the fanout cone of its injection site, closed through
// flip-flops to a fixpoint (an effect latched into state re-emerges at
// the flip-flop's Q next cycle and fans out again). Everything outside
// that closure provably carries the broadcast fault-free value in every
// lane at every time unit, so the simulation engine never needs to look
// there. This file computes the per-group union of those closures (the
// group's static active region) from the netlist CSR, and orders the
// fault list so that faults sharing cones land in the same group,
// keeping each group's union region — and therefore its work — small.
//
// A group holds at most 64 faults, so every forcing mask is one uint64
// with bit i standing for the group's lane i. All plan storage is carved
// from shared slabs owned by the builder:
// one Engine construction performs a handful of block allocations
// instead of hundreds of per-list appends. Plan slices must therefore
// never be appended to after build.

import (
	"sort"

	"seqbist/internal/faults"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
)

// slab is a bump allocator handing out exact-size slices carved from
// shared blocks. Carved slices are full-capacity-clamped so an
// accidental append cannot bleed into a neighbour.
type slab[T any] struct {
	buf []T
}

func (s *slab[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < n {
		size := 1 << 12
		for size < n {
			size <<= 1
		}
		s.buf = make([]T, 0, size)
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off+n : off+n]
}

// sigMask is a per-signal stem-forcing mask pair.
type sigMask struct {
	sig    netlist.SignalID
	m0, m1 uint64
}

// gatePinMask is a branch-forcing mask pair on one gate input pin.
type gatePinMask struct {
	gate, pin int32
	m0, m1    uint64
}

// dffMask is a branch-forcing mask pair on one flip-flop D pin.
type dffMask struct {
	dff    int32
	m0, m1 uint64
}

// site is one distinct fault-injection site of a group with the lanes it
// forces. A site is "activated" at a time unit when the fault-free value
// of its signal is not definitely equal to the stuck value — only then
// can the forcing perturb any lane.
type site struct {
	sig   netlist.SignalID
	stuck logic.Value
	lanes uint64
}

// plan is the static simulation plan of one fault group: the union active
// region (gates/flip-flops/primary outputs the group's faults can ever
// influence, in topological order) plus the sparse forcing lists that
// replace per-signal mask probes over the whole netlist.
type plan struct {
	gates []int32 // region gate indices, ascending (= topological) order
	dffs  []int32 // region flip-flop indices, ascending
	pos   []int32 // region primary-output positions, ascending

	sites []site // distinct injection sites, for the quiescence check

	stems     []sigMask          // stem forces, loaded into scratch per call
	stemPIs   []netlist.SignalID // stem-forced primary inputs
	stemQs    []int32            // flip-flops whose Q output carries a stem force
	seedGates []int32            // gates always queued: forced pin or forced output
	branches  []gatePinMask      // branch forces on gate input pins
	dffForce  []dffMask          // branch forces on flip-flop D pins
}

// planBuilder holds the reusable marking scratch, the per-group build
// buffers, and the slabs that back the finished plans. Marks are
// epoch-stamped so consecutive groups reuse the arrays without clearing;
// the temporary build lists are reset (not reallocated) per group and
// copied exact-size into slab storage by finalize.
type planBuilder struct {
	c   *netlist.Circuit
	csr *netlist.CSR

	sigMark  []int32
	gateMark []int32
	dffMark  []int32
	poMark   []int32
	seedMark []int32
	epoch    int32

	queue []netlist.SignalID

	// Per-group temporaries, reset per build.
	tGates, tDFFs, tPOs []int32
	tStemQs, tSeed      []int32
	tStemPIs            []netlist.SignalID
	tStems              []sigMask
	tBranches           []gatePinMask
	tDFFForce           []dffMask
	tSites              []site

	// Slabs backing the finished plans.
	i32Slab   slab[int32]
	sigSlab   slab[netlist.SignalID]
	stemSlab  slab[sigMask]
	brSlab    slab[gatePinMask]
	dffSlab   slab[dffMask]
	siteSlab  slab[site]
	faultSlab slab[int]
	wordSlab  slab[logic.Word]
}

func newPlanBuilder(c *netlist.Circuit) *planBuilder {
	return &planBuilder{
		c:        c,
		csr:      c.CSR(),
		sigMark:  make([]int32, c.NumSignals()),
		gateMark: make([]int32, c.NumGates()),
		dffMark:  make([]int32, c.NumDFFs()),
		poMark:   make([]int32, c.NumPOs()),
		seedMark: make([]int32, c.NumGates()),
	}
}

// addSignal marks a signal as region and queues it for fanout traversal.
func (pb *planBuilder) addSignal(s netlist.SignalID) {
	if pb.sigMark[s] != pb.epoch {
		pb.sigMark[s] = pb.epoch
		pb.queue = append(pb.queue, s)
	}
}

// build computes the plan for the faults in fl indexed by faultIdx, with
// bit i of the masks corresponding to faultIdx[i]. len(faultIdx) must not
// exceed 64.
func (pb *planBuilder) build(fl []faults.Fault, faultIdx []int) plan {
	c, csr := pb.c, pb.csr
	pb.epoch++
	pb.queue = pb.queue[:0]
	pb.tGates, pb.tDFFs, pb.tPOs = pb.tGates[:0], pb.tDFFs[:0], pb.tPOs[:0]
	pb.tStemQs, pb.tSeed = pb.tStemQs[:0], pb.tSeed[:0]
	pb.tStemPIs = pb.tStemPIs[:0]
	pb.tStems, pb.tBranches, pb.tDFFForce, pb.tSites = pb.tStems[:0], pb.tBranches[:0], pb.tDFFForce[:0], pb.tSites[:0]

	// Sparse forcing lists, merged across lanes. Linear scans over the
	// per-group lists are fine: a group has at most 64 faults.
	addStem := func(sig netlist.SignalID, m0, m1 uint64) {
		for i := range pb.tStems {
			if pb.tStems[i].sig == sig {
				pb.tStems[i].m0 |= m0
				pb.tStems[i].m1 |= m1
				return
			}
		}
		pb.tStems = append(pb.tStems, sigMask{sig: sig, m0: m0, m1: m1})
	}
	addBranch := func(gate, pin int32, m0, m1 uint64) {
		for i := range pb.tBranches {
			if pb.tBranches[i].gate == gate && pb.tBranches[i].pin == pin {
				pb.tBranches[i].m0 |= m0
				pb.tBranches[i].m1 |= m1
				return
			}
		}
		pb.tBranches = append(pb.tBranches, gatePinMask{gate: gate, pin: pin, m0: m0, m1: m1})
	}
	addDFFForce := func(dff int32, m0, m1 uint64) {
		for i := range pb.tDFFForce {
			if pb.tDFFForce[i].dff == dff {
				pb.tDFFForce[i].m0 |= m0
				pb.tDFFForce[i].m1 |= m1
				return
			}
		}
		pb.tDFFForce = append(pb.tDFFForce, dffMask{dff: dff, m0: m0, m1: m1})
	}
	addSite := func(sig netlist.SignalID, stuck logic.Value, lane uint64) {
		for i := range pb.tSites {
			if pb.tSites[i].sig == sig && pb.tSites[i].stuck == stuck {
				pb.tSites[i].lanes |= lane
				return
			}
		}
		pb.tSites = append(pb.tSites, site{sig: sig, stuck: stuck, lanes: lane})
	}

	for lane, fi := range faultIdx {
		f := fl[fi]
		laneMask := uint64(1) << uint(lane)
		var m0, m1 uint64
		if f.Stuck == logic.Zero {
			m0 = laneMask
		} else {
			m1 = laneMask
		}
		addSite(f.Signal, f.Stuck, laneMask)
		if f.IsStem() {
			addStem(f.Signal, m0, m1)
			pb.addSignal(f.Signal)
			continue
		}
		con := c.Consumers(f.Signal)[f.Consumer]
		switch con.Kind {
		case netlist.ConsumerGate:
			addBranch(con.Index, con.Pin, m0, m1)
			if pb.gateMark[con.Index] != pb.epoch {
				pb.gateMark[con.Index] = pb.epoch
			}
			pb.addSignal(netlist.SignalID(csr.Out[con.Index]))
		case netlist.ConsumerDFF:
			addDFFForce(con.Index, m0, m1)
			if pb.dffMark[con.Index] != pb.epoch {
				pb.dffMark[con.Index] = pb.epoch
			}
			pb.addSignal(c.DFFs[con.Index].Q)
		}
	}

	// Classify the stem forces by source kind and queue the driver gates
	// of forced gate-output signals (they must always be evaluated so the
	// force applies even when their inputs are clean).
	for _, sm := range pb.tStems {
		if d := c.Driver(sm.sig); d >= 0 {
			if pb.gateMark[d] != pb.epoch {
				pb.gateMark[d] = pb.epoch
			}
		} else if fi := c.DFFOf(sm.sig); fi >= 0 {
			pb.tStemQs = append(pb.tStemQs, int32(fi))
		} else {
			pb.tStemPIs = append(pb.tStemPIs, sm.sig)
		}
	}

	// Close the region over combinational fanout and flip-flops.
	for len(pb.queue) > 0 {
		s := pb.queue[len(pb.queue)-1]
		pb.queue = pb.queue[:len(pb.queue)-1]
		fan := csr.GateFanout(s)
		for _, gi := range fan {
			if pb.gateMark[gi] != pb.epoch {
				pb.gateMark[gi] = pb.epoch
			}
			pb.addSignal(netlist.SignalID(csr.Out[gi]))
		}
		for _, di := range csr.DFFFanout(s) {
			if pb.dffMark[di] != pb.epoch {
				pb.dffMark[di] = pb.epoch
			}
			pb.addSignal(c.DFFs[di].Q)
		}
		for _, pi := range csr.POFanout(s) {
			pb.poMark[pi] = pb.epoch
		}
	}

	// Gather the region in ascending order (ascending gate index is
	// topological order because Circuit.Gates is topologically sorted).
	for gi := range pb.gateMark {
		if pb.gateMark[gi] == pb.epoch {
			pb.tGates = append(pb.tGates, int32(gi))
		}
	}
	for di := range pb.dffMark {
		if pb.dffMark[di] == pb.epoch {
			pb.tDFFs = append(pb.tDFFs, int32(di))
		}
	}
	for pi := range pb.poMark {
		if pb.poMark[pi] == pb.epoch {
			pb.tPOs = append(pb.tPOs, int32(pi))
		}
	}
	// Seed gates: forced-pin gates plus drivers of stem-forced outputs —
	// exactly the gates marked before the closure ran, deduplicated by
	// re-deriving them from the forcing lists with an epoch-stamped mark.
	for _, b := range pb.tBranches {
		if pb.seedMark[b.gate] != pb.epoch {
			pb.seedMark[b.gate] = pb.epoch
			pb.tSeed = append(pb.tSeed, b.gate)
		}
	}
	for _, sm := range pb.tStems {
		if d := c.Driver(sm.sig); d >= 0 && pb.seedMark[d] != pb.epoch {
			pb.seedMark[d] = pb.epoch
			pb.tSeed = append(pb.tSeed, int32(d))
		}
	}
	sort.Slice(pb.tSeed, func(i, j int) bool { return pb.tSeed[i] < pb.tSeed[j] })
	return pb.finalize()
}

// finalize copies the temporary build lists into exact-size slab-backed
// slices, so each finished plan is self-contained and the temporaries can
// be reused by the next group.
func (pb *planBuilder) finalize() plan {
	var p plan
	p.gates = pb.carveI32(pb.tGates)
	p.dffs = pb.carveI32(pb.tDFFs)
	p.pos = pb.carveI32(pb.tPOs)
	p.stemQs = pb.carveI32(pb.tStemQs)
	p.seedGates = pb.carveI32(pb.tSeed)
	if n := len(pb.tStemPIs); n > 0 {
		p.stemPIs = pb.sigSlab.alloc(n)
		copy(p.stemPIs, pb.tStemPIs)
	}
	if n := len(pb.tStems); n > 0 {
		p.stems = pb.stemSlab.alloc(n)
		copy(p.stems, pb.tStems)
	}
	if n := len(pb.tBranches); n > 0 {
		p.branches = pb.brSlab.alloc(n)
		copy(p.branches, pb.tBranches)
	}
	if n := len(pb.tDFFForce); n > 0 {
		p.dffForce = pb.dffSlab.alloc(n)
		copy(p.dffForce, pb.tDFFForce)
	}
	if n := len(pb.tSites); n > 0 {
		p.sites = pb.siteSlab.alloc(n)
		copy(p.sites, pb.tSites)
	}
	return p
}

func (pb *planBuilder) carveI32(src []int32) []int32 {
	if len(src) == 0 {
		return nil
	}
	out := pb.i32Slab.alloc(len(src))
	copy(out, src)
	return out
}

// packOrder returns a permutation of fault-list indices grouped by
// structural locality: faults are keyed by the topological position of
// the first gate their injection site can influence, so faults whose
// cones overlap land in the same group and the group's union active
// region stays close to a single fault's cone. The sort is stable, so
// the order (and with it every detection-report order) is deterministic
// for a given circuit and fault list.
func packOrder(c *netlist.Circuit, fl []faults.Fault) []int {
	csr := c.CSR()
	numGates := c.NumGates()
	key := func(f faults.Fault) int {
		// First gate influenced by the forced signal; faults whose effect
		// enters a flip-flop before any gate sort after all gate keys,
		// bucketed by flip-flop.
		sig := f.Signal
		if !f.IsStem() {
			con := c.Consumers(f.Signal)[f.Consumer]
			switch con.Kind {
			case netlist.ConsumerGate:
				return int(con.Index)
			case netlist.ConsumerDFF:
				return numGates + int(con.Index)
			}
		}
		if d := c.Driver(sig); d >= 0 {
			return d
		}
		if fan := csr.GateFanout(sig); len(fan) > 0 {
			return int(fan[0])
		}
		if dfan := csr.DFFFanout(sig); len(dfan) > 0 {
			return numGates + int(dfan[0])
		}
		return numGates + c.NumDFFs() // observed only at a primary output
	}
	order := make([]int, len(fl))
	keys := make([]int, len(fl))
	for i, f := range fl {
		order[i] = i
		keys[i] = key(f)
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	return order
}
