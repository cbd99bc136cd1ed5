package fsim

// The active-region evaluation engine: one time unit of one fault group.
//
// The full-netlist stepper (fullpath.go) evaluates every gate for every
// group at every time unit. This engine exploits the defining invariant
// of parallel-fault simulation: a lane's value differs from the
// fault-free machine only where a fault effect has actually propagated.
// Per time unit it
//
//   - checks quiescence: a group with no diverged flip-flop and no
//     activated fault site provably tracks the fault-free machine, and
//     the whole time unit is skipped,
//   - otherwise propagates divergence through the group's static active
//     region (cone.go) event-driven: it seeds from diverged flip-flops and
//     activated sites, then evaluates in level order only the gates queued
//     by a diverged input or a forcing, reading undiverged inputs as
//     Broadcast(goodVal). Sound because the lane-parallel word ops are
//     homomorphic over Broadcast: a gate whose inputs all equal the
//     broadcast fault-free values computes exactly the broadcast
//     fault-free output,
//   - detects only at region primary outputs and captures next state only
//     at region flip-flops; everything else implicitly holds the
//     fault-free state.
//
// Event-driven propagation is the only region structure. A group whose
// region spans most of the netlist and stays hot for consecutive calls is
// escalated to the full-netlist stepper instead (noteActivity, fsim.go)
// until its machines reconverge with the fault-free machine.
//
// Detected (dropped) lanes are inerted: forcing masks are filtered by the
// live-lane mask when a plan is loaded, and stale divergence in dead
// lanes is pinned back to the fault-free value at seed time, so a group
// whose faults are all detected or inactive reaches quiescence. The
// results are bit-for-bit identical to the full path (lanes are
// independent bit columns, and dead lanes are masked out of every
// detection and divergence report); the differential tests prove it.

import (
	"math"

	"seqbist/internal/logic"
	"seqbist/internal/netlist"
)

// bcast is a lookup table for logic.Broadcast over the four Value
// encodings: the engine broadcasts a fault-free value for every lazy
// input read and every activation compare, and an indexed 16-byte load
// beats Broadcast's conditional fills on that path.
var bcast = [4]logic.Word{
	logic.Invalid: logic.Broadcast(logic.Invalid),
	logic.Zero:    logic.Broadcast(logic.Zero),
	logic.One:     logic.Broadcast(logic.One),
	logic.X:       logic.Broadcast(logic.X),
}

// inputWord returns the value of signal s for the current time unit: the
// diverged word if s diverged this epoch, else the broadcast fault-free
// value.
func inputWord(sc *scratch, goodVals []logic.Value, s int32) logic.Word {
	if sc.sigEpoch[s] == sc.epoch {
		return sc.words[s]
	}
	return bcast[goodVals[s]]
}

// bumpEpoch advances the per-time-unit stamp, clearing the stamp arrays
// on the (astronomically rare) int32 wraparound so stale stamps can never
// alias a fresh epoch.
func (sc *scratch) bumpEpoch() {
	if sc.epoch == math.MaxInt32-1 {
		for i := range sc.sigEpoch {
			sc.sigEpoch[i] = 0
		}
		for i := range sc.gateEpoch {
			sc.gateEpoch[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
}

// mixAlive pins the dead lanes of w to the fault-free value bg, keeping
// the live lanes: dropped faults must not keep generating activity.
func mixAlive(w, bg logic.Word, alive uint64) logic.Word {
	return logic.Word{
		CanZero: w.CanZero&alive | bg.CanZero&^alive,
		CanOne:  w.CanOne&alive | bg.CanOne&^alive,
	}
}

// push queues gate gi into its level bucket, once per time unit.
func (sc *scratch) push(csr *netlist.CSR, gi int32) {
	if sc.gateEpoch[gi] != sc.epoch {
		sc.gateEpoch[gi] = sc.epoch
		lev := csr.Level[gi]
		sc.buckets[lev] = append(sc.buckets[lev], gi)
		if lev > sc.maxLev {
			sc.maxLev = lev
		}
	}
}

// activate records signal s as diverged with value w and queues its
// consumer gates. The region is closed under fanout, so every consumer
// belongs to the group's region.
func (sc *scratch) activate(csr *netlist.CSR, s int32, w logic.Word) {
	sc.words[s] = w
	sc.sigEpoch[s] = sc.epoch
	for _, gi := range csr.GateFanout(netlist.SignalID(s)) {
		sc.push(csr, gi)
	}
}

// stepGroup evaluates one time unit for group g against the fault-free
// value snapshot goodVals, updating the sparse flip-flop state (state
// words plus the diverged list at *divDFF) in place, and returns the mask
// of lanes detected at a primary output this cycle (not yet masked by
// g.alive). Forcing plans must already be loaded into sc.
func (e *Engine) stepGroup(sc *scratch, g *group, goodVals []logic.Value, state []logic.Word, divDFF *[]int32) uint64 {
	p := &g.plan
	div := *divDFF
	alive := g.alive

	// Quiescence: every machine equals the fault-free machine and no live
	// fault site is activated, so this time unit cannot change anything.
	if len(div) == 0 {
		activated := false
		for i := range p.sites {
			s := &p.sites[i]
			if s.lanes&alive == 0 {
				continue
			}
			if goodVals[s.sig] != s.stuck {
				activated = true
				break
			}
		}
		if !activated {
			sc.quiescent++
			sc.skipped += int64(len(e.csr.Out))
			return 0
		}
	}

	c, csr := e.c, e.csr
	sc.bumpEpoch()
	epoch := sc.epoch
	sc.maxLev = 0
	evalStart := sc.evaluated

	// Seed: flip-flops that entered this time unit diverged. Lanes whose
	// fault has been dropped since the divergence was recorded are pinned
	// back to the fault-free value here, so dead faults go inert; capture
	// below re-examines every flip-flop whose D diverged or is forced, so
	// a reconverging flip-flop simply drops off the diverged list.
	for _, di := range div {
		q := c.DFFs[di].Q
		bg := bcast[goodVals[q]]
		w := mixAlive(state[di], bg, alive)
		if m0, m1 := sc.stem0[q], sc.stem1[q]; m0|m1 != 0 {
			w = forceWord(w, m0, m1)
		}
		if w != bg {
			sc.activate(csr, int32(q), w)
		}
	}
	// Seed: stem forces on clean flip-flop outputs and on primary inputs
	// activate their signal when the forcing actually changes it.
	for _, di := range p.stemQs {
		q := c.DFFs[di].Q
		if sc.sigEpoch[q] == epoch {
			continue // already seeded as diverged (force applied above)
		}
		bg := bcast[goodVals[q]]
		if w := forceWord(bg, sc.stem0[q], sc.stem1[q]); w != bg {
			sc.activate(csr, int32(q), w)
		}
	}
	for _, sig := range p.stemPIs {
		bg := bcast[goodVals[sig]]
		if w := forceWord(bg, sc.stem0[sig], sc.stem1[sig]); w != bg {
			sc.activate(csr, int32(sig), w)
		}
	}
	// Seed: gates carrying a forced input pin or a forced output must be
	// evaluated unconditionally so the forcing applies even when their
	// inputs are clean.
	for _, gi := range p.seedGates {
		sc.push(csr, gi)
	}

	// Levelized event propagation. A gate at level L only ever queues
	// consumers at levels > L, so a single ascending sweep suffices;
	// sc.maxLev grows as activations reach deeper levels.
	for lev := int32(1); lev <= sc.maxLev; lev++ {
		bucket := sc.buckets[lev]
		for bi := 0; bi < len(bucket); bi++ {
			gi := bucket[bi]
			ins := csr.In[csr.InOff[gi]:csr.InOff[gi+1]]
			var v logic.Word
			if bf := sc.branchAt[gi]; len(bf) != 0 {
				v = evalForcedLazy(sc, goodVals, csr.Type[gi], ins, bf)
			} else {
				v = inputWord(sc, goodVals, ins[0])
				switch csr.Type[gi] {
				case netlist.Buf:
				case netlist.Not:
					v = v.Not()
				case netlist.And:
					for _, in := range ins[1:] {
						v = v.And(inputWord(sc, goodVals, in))
					}
				case netlist.Nand:
					for _, in := range ins[1:] {
						v = v.And(inputWord(sc, goodVals, in))
					}
					v = v.Not()
				case netlist.Or:
					for _, in := range ins[1:] {
						v = v.Or(inputWord(sc, goodVals, in))
					}
				case netlist.Nor:
					for _, in := range ins[1:] {
						v = v.Or(inputWord(sc, goodVals, in))
					}
					v = v.Not()
				case netlist.Xor:
					for _, in := range ins[1:] {
						v = v.Xor(inputWord(sc, goodVals, in))
					}
				case netlist.Xnor:
					for _, in := range ins[1:] {
						v = v.Xor(inputWord(sc, goodVals, in))
					}
					v = v.Not()
				}
			}
			out := csr.Out[gi]
			if m0, m1 := sc.stem0[out], sc.stem1[out]; m0|m1 != 0 {
				v = forceWord(v, m0, m1)
			}
			sc.evaluated++
			if bg := bcast[goodVals[out]]; v != bg {
				sc.activate(csr, out, v)
			}
		}
		sc.buckets[lev] = bucket[:0]
	}
	sc.skipped += int64(len(csr.Out)) - (sc.evaluated - evalStart)

	// Detection at the region's primary outputs: an undiverged output
	// equals the fault-free value in every lane and cannot detect.
	var det uint64
	for _, pp := range p.pos {
		po := c.POs[pp]
		if sc.sigEpoch[po] != epoch {
			continue
		}
		switch goodVals[po] {
		case logic.Zero:
			det |= sc.words[po].DefiniteOne()
		case logic.One:
			det |= sc.words[po].DefiniteZero()
		}
	}

	// Capture next state at the region's flip-flops. A flip-flop whose D
	// neither diverged nor carries a forcing stays (or returns to) the
	// fault-free state and is simply left off the new diverged list.
	sc.newDiv = sc.newDiv[:0]
	for _, di := range p.dffs {
		d := c.DFFs[di].D
		m0, m1 := sc.dff0[di], sc.dff1[di]
		if sc.sigEpoch[d] != epoch && m0|m1 == 0 {
			continue
		}
		bg := bcast[goodVals[d]]
		w := bg
		if sc.sigEpoch[d] == epoch {
			w = sc.words[d]
		}
		if m0|m1 != 0 {
			w = forceWord(w, m0, m1)
		}
		if w != bg {
			state[di] = w
			sc.newDiv = append(sc.newDiv, di)
		}
	}
	// Swap the freshly built diverged list into place; the old backing
	// array becomes the scratch buffer for the next time unit.
	*divDFF, sc.newDiv = sc.newDiv, (*divDFF)[:0]
	return det
}

// evalForcedLazy evaluates a gate whose input pins carry branch-forced
// lanes, reading undiverged inputs as broadcast fault-free values.
func evalForcedLazy(sc *scratch, goodVals []logic.Value, t netlist.GateType, ins []int32, bf []pinForce) logic.Word {
	in := func(p int) logic.Word {
		w := inputWord(sc, goodVals, ins[p])
		for i := range bf {
			if int(bf[i].pin) == p {
				w = forceWord(w, bf[i].m0, bf[i].m1)
			}
		}
		return w
	}
	v := in(0)
	switch t {
	case netlist.Buf:
	case netlist.Not:
		v = v.Not()
	case netlist.And, netlist.Nand:
		for p := 1; p < len(ins); p++ {
			v = v.And(in(p))
		}
		if t == netlist.Nand {
			v = v.Not()
		}
	case netlist.Or, netlist.Nor:
		for p := 1; p < len(ins); p++ {
			v = v.Or(in(p))
		}
		if t == netlist.Nor {
			v = v.Not()
		}
	case netlist.Xor, netlist.Xnor:
		for p := 1; p < len(ins); p++ {
			v = v.Xor(in(p))
		}
		if t == netlist.Xnor {
			v = v.Not()
		}
	}
	return v
}
