package fsim

import (
	"seqbist/internal/faults"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/sim"
	"seqbist/internal/vectors"
)

// Single is an allocation-free two-machine (fault-free + one faulty)
// scalar simulator with early exit on detection. It checks one fault
// against one sequence (T0 compaction, BIST response traces,
// Engine.Single); Procedure 2's many candidates per fault go through its
// candidate-parallel form, Batch.
//
// Like the parallel engine it is an active-region simulator: the
// fault-free machine is evaluated normally, and the faulty machine is
// propagated event-driven from the injection site and the diverged
// flip-flops, reading every undiverged signal from the fault-free
// machine. A cycle in which no flip-flop diverges and the fault site is
// not activated (fault-free site value definitely equals the stuck value)
// costs one fault-free evaluation and nothing else.
type Single struct {
	c    *netlist.Circuit
	csr  *netlist.CSR
	good *sim.Simulator

	goodState []logic.Value
	goodPO    []logic.Value

	// Faulty-machine sparse state: badVals/badState entries are valid
	// only where stamped/listed.
	badVals  []logic.Value
	badState []logic.Value
	divDFF   []int32
	newDiv   []int32

	epoch     int64
	sigEpoch  []int64
	gateEpoch []int64
	capEpoch  []int64
	buckets   [][]int32
	capList   []int32
}

// NewSingle returns a Single simulator for c.
func NewSingle(c *netlist.Circuit) *Single {
	return &Single{
		c:         c,
		csr:       c.CSR(),
		good:      sim.New(c),
		goodState: make([]logic.Value, c.NumDFFs()),
		goodPO:    make([]logic.Value, c.NumPOs()),
		badVals:   make([]logic.Value, c.NumSignals()),
		badState:  make([]logic.Value, c.NumDFFs()),
		sigEpoch:  make([]int64, c.NumSignals()),
		gateEpoch: make([]int64, c.NumGates()),
		capEpoch:  make([]int64, c.NumDFFs()),
		buckets:   make([][]int32, c.CSR().MaxLevel+1),
	}
}

// injection is the decoded forcing site of one fault.
type injection struct {
	stemSig    netlist.SignalID // forced stem signal, or -1
	branchGate int32            // gate with a forced input pin, or -1
	branchPin  int32
	branchDFF  int32 // flip-flop with a forced D pin, or -1
	seedGate   int32 // gate to queue unconditionally, or -1
	stuck      logic.Value
}

// decodeFault locates the forcing site of f in c.
func decodeFault(c *netlist.Circuit, f faults.Fault) injection {
	inj := injection{stemSig: -1, branchGate: -1, branchPin: -1, branchDFF: -1, seedGate: -1, stuck: f.Stuck}
	if f.IsStem() {
		inj.stemSig = f.Signal
		if d := c.Driver(f.Signal); d >= 0 {
			inj.seedGate = int32(d)
		}
		return inj
	}
	con := c.Consumers(f.Signal)[f.Consumer]
	switch con.Kind {
	case netlist.ConsumerGate:
		inj.branchGate = con.Index
		inj.branchPin = con.Pin
		inj.seedGate = con.Index
	case netlist.ConsumerDFF:
		inj.branchDFF = con.Index
	}
	return inj
}

// Detects reports whether fault f is detected by seq applied from the
// all-unknown state, and the first detection time unit (or Undetected).
func (s *Single) Detects(f faults.Fault, seq vectors.Sequence) (bool, int) {
	c, csr := s.c, s.csr
	inj := decodeFault(c, f)
	stuck := inj.stuck
	for i := range s.goodState {
		s.goodState[i] = logic.X
	}
	s.divDFF = s.divDFF[:0]

	for u, vec := range seq {
		// Fault-free machine: full evaluation (its values are the lazy
		// source for every undiverged faulty-machine signal).
		s.good.Step(s.goodState, vec, s.goodPO)
		goodVals := s.good.Values()

		// Quiescence: the faulty machine tracks the fault-free machine
		// exactly while nothing has diverged and the site is inactive.
		if len(s.divDFF) == 0 && goodVals[f.Signal] == stuck {
			continue
		}

		s.epoch++
		epoch := s.epoch
		maxLev := int32(0)
		detected := false
		push := func(gi int32) {
			if s.gateEpoch[gi] != epoch {
				s.gateEpoch[gi] = epoch
				lev := csr.Level[gi]
				s.buckets[lev] = append(s.buckets[lev], gi)
				if lev > maxLev {
					maxLev = lev
				}
			}
		}
		s.capList = s.capList[:0]
		addCap := func(di int32) {
			if s.capEpoch[di] != epoch {
				s.capEpoch[di] = epoch
				s.capList = append(s.capList, di)
			}
		}
		activate := func(sig int32, v logic.Value) {
			s.badVals[sig] = v
			s.sigEpoch[sig] = epoch
			id := netlist.SignalID(sig)
			if gv := goodVals[sig]; gv.IsBinary() && v.IsBinary() && gv != v &&
				len(csr.POFanout(id)) > 0 {
				detected = true
			}
			for _, gi := range csr.GateFanout(id) {
				push(gi)
			}
			for _, di := range csr.DFFFanout(id) {
				addCap(di)
			}
		}

		// Seeds: diverged flip-flop outputs, the activated stem site, the
		// forced gate, and the forced flip-flop.
		for _, di := range s.divDFF {
			q := c.DFFs[di].Q
			bv := s.badState[di]
			if q == inj.stemSig {
				bv = stuck
			}
			if bv != goodVals[q] {
				activate(int32(q), bv)
			}
			addCap(di)
		}
		if inj.stemSig >= 0 && s.sigEpoch[inj.stemSig] != epoch &&
			c.Driver(inj.stemSig) < 0 && goodVals[inj.stemSig] != stuck {
			// Stem on a primary input or flip-flop output; stems on gate
			// outputs are applied when the driver gate (always queued
			// below) is evaluated.
			activate(int32(inj.stemSig), stuck)
		}
		if inj.seedGate >= 0 {
			push(inj.seedGate)
		}
		if inj.branchDFF >= 0 {
			addCap(inj.branchDFF)
		}

		// Levelized event propagation of the faulty machine.
		for lev := int32(1); lev <= maxLev; lev++ {
			bucket := s.buckets[lev]
			for bi := 0; bi < len(bucket); bi++ {
				gi := bucket[bi]
				ins := csr.In[csr.InOff[gi]:csr.InOff[gi+1]]
				in := func(p int) logic.Value {
					if gi == inj.branchGate && int32(p) == inj.branchPin {
						return stuck
					}
					sig := ins[p]
					if s.sigEpoch[sig] == epoch {
						return s.badVals[sig]
					}
					return goodVals[sig]
				}
				v := in(0)
				switch csr.Type[gi] {
				case netlist.Buf:
				case netlist.Not:
					v = v.Not()
				case netlist.And, netlist.Nand:
					for p := 1; p < len(ins); p++ {
						v = v.And(in(p))
					}
					if csr.Type[gi] == netlist.Nand {
						v = v.Not()
					}
				case netlist.Or, netlist.Nor:
					for p := 1; p < len(ins); p++ {
						v = v.Or(in(p))
					}
					if csr.Type[gi] == netlist.Nor {
						v = v.Not()
					}
				case netlist.Xor, netlist.Xnor:
					for p := 1; p < len(ins); p++ {
						v = v.Xor(in(p))
					}
					if csr.Type[gi] == netlist.Xnor {
						v = v.Not()
					}
				}
				out := csr.Out[gi]
				if netlist.SignalID(out) == inj.stemSig {
					v = stuck
				}
				if v != goodVals[out] {
					activate(out, v)
				}
			}
			s.buckets[lev] = bucket[:0]
		}

		if detected {
			patternsApplied.Add(int64(u + 1))
			return true, u
		}

		// Capture the faulty next state sparsely; the fault-free next
		// state was already captured by the good simulator's Step.
		s.newDiv = s.newDiv[:0]
		for _, di := range s.capList {
			d := c.DFFs[di].D
			bv := goodVals[d]
			if s.sigEpoch[d] == epoch {
				bv = s.badVals[d]
			}
			if int32(di) == inj.branchDFF {
				bv = stuck
			}
			if bv != goodVals[d] {
				s.badState[di] = bv
				s.newDiv = append(s.newDiv, di)
			}
		}
		s.divDFF, s.newDiv = s.newDiv, s.divDFF[:0]
	}
	patternsApplied.Add(int64(len(seq)))
	return false, Undetected
}

// POTrace simulates fault f under seq and returns the faulty machine's
// primary-output values at every time unit. It allocates one slice per
// time unit; it exists for response-compaction analysis (package bist),
// not for the hot detection path, and runs the faulty machine densely.
func (s *Single) POTrace(f faults.Fault, seq vectors.Sequence) [][]logic.Value {
	c := s.c
	trace := make([][]logic.Value, 0, len(seq))
	badState := make([]logic.Value, c.NumDFFs())
	badVals := make([]logic.Value, c.NumSignals())
	for i := range badState {
		badState[i] = logic.X
	}
	stemSig := netlist.SignalID(-1)
	branchGate, branchPin := -1, int32(-1)
	branchDFF := -1
	if f.IsStem() {
		stemSig = f.Signal
	} else {
		con := c.Consumers(f.Signal)[f.Consumer]
		switch con.Kind {
		case netlist.ConsumerGate:
			branchGate = int(con.Index)
			branchPin = con.Pin
		case netlist.ConsumerDFF:
			branchDFF = int(con.Index)
		}
	}
	stuck := f.Stuck
	for _, vec := range seq {
		for i, pi := range c.PIs {
			v := vec[i]
			if pi == stemSig {
				v = stuck
			}
			badVals[pi] = v
		}
		for i, ff := range c.DFFs {
			v := badState[i]
			if ff.Q == stemSig {
				v = stuck
			}
			badVals[ff.Q] = v
		}
		for gi := range c.Gates {
			g := &c.Gates[gi]
			var bv logic.Value
			if gi == branchGate {
				bv = evalScalar(g, badVals, branchGate, branchPin, stuck)
			} else {
				bv = evalScalar(g, badVals, -1, 0, logic.Invalid)
			}
			if g.Out == stemSig {
				bv = stuck
			}
			badVals[g.Out] = bv
		}
		po := make([]logic.Value, c.NumPOs())
		for i, sig := range c.POs {
			po[i] = badVals[sig]
		}
		trace = append(trace, po)
		for i, ff := range c.DFFs {
			v := badVals[ff.D]
			if i == branchDFF {
				v = stuck
			}
			badState[i] = v
		}
	}
	return trace
}

// evalScalar evaluates one gate over vals. When gi matches forcedGate, the
// input value at forcedPin is replaced by forced before evaluation.
func evalScalar(g *netlist.Gate, vals []logic.Value, forcedGate int, forcedPin int32, forced logic.Value) logic.Value {
	in := func(p int) logic.Value {
		if forcedGate >= 0 && int32(p) == forcedPin {
			return forced
		}
		return vals[g.In[p]]
	}
	v := in(0)
	switch g.Type {
	case netlist.Buf:
	case netlist.Not:
		v = v.Not()
	case netlist.And, netlist.Nand:
		for p := 1; p < len(g.In); p++ {
			v = v.And(in(p))
		}
		if g.Type == netlist.Nand {
			v = v.Not()
		}
	case netlist.Or, netlist.Nor:
		for p := 1; p < len(g.In); p++ {
			v = v.Or(in(p))
		}
		if g.Type == netlist.Nor {
			v = v.Not()
		}
	case netlist.Xor, netlist.Xnor:
		for p := 1; p < len(g.In); p++ {
			v = v.Xor(in(p))
		}
		if g.Type == netlist.Xnor {
			v = v.Not()
		}
	}
	return v
}
