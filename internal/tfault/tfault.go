// Package tfault implements a transition (gross-delay) fault model for
// synchronous sequential circuits, used to evaluate the paper's at-speed
// motivation.
//
// The paper argues that applying more at-speed vectors than |T0| —
// expanded sequences apply 8·n vectors per stored vector — "potentially
// achieves better coverage of defects that affect circuit delays". This
// package makes that claim measurable: a slow-to-rise (slow-to-fall)
// fault at a line delays every rising (falling) transition of the line by
// more than one clock period, so the line's delivered value is
//
//	slow-to-rise: delivered(u) = computed(u) AND delivered(u-1)
//	slow-to-fall: delivered(u) = computed(u) OR  delivered(u-1)
//
// in three-valued logic (a 1 is delivered only when the line computed 1
// in consecutive cycles; falls symmetrically). Detection uses the same
// sound rule as stuck-at simulation: a definite fault-free/faulty
// difference at a primary output. Transition-fault detection inherently
// requires consecutive at-speed vectors — exactly what the expansion
// hardware provides.
package tfault

import (
	"fmt"

	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// Fault is a transition fault at a signal stem.
type Fault struct {
	Signal     netlist.SignalID
	SlowToRise bool // false = slow-to-fall
}

// Name renders the fault conventionally, e.g. "G8 STR" / "G8 STF".
func (f Fault) Name(c *netlist.Circuit) string {
	kind := "STF"
	if f.SlowToRise {
		kind = "STR"
	}
	return fmt.Sprintf("%s %s", c.NameOf(f.Signal), kind)
}

// Universe enumerates the transition faults of c: slow-to-rise and
// slow-to-fall at every signal stem (the classical gross-delay site
// list; branch sites add little for a gross-delay study and are omitted,
// matching common practice).
func Universe(c *netlist.Circuit) []Fault {
	out := make([]Fault, 0, 2*c.NumSignals())
	for id := 0; id < c.NumSignals(); id++ {
		sig := netlist.SignalID(id)
		out = append(out,
			Fault{Signal: sig, SlowToRise: true},
			Fault{Signal: sig, SlowToRise: false},
		)
	}
	return out
}

// Sim is a two-machine (fault-free plus one faulty) scalar
// transition-fault simulator with early exit on detection. Not safe for
// concurrent use.
type Sim struct {
	c                   *netlist.Circuit
	goodVals, badVals   []logic.Value
	goodState, badState []logic.Value
}

// NewSim returns a simulator for c.
func NewSim(c *netlist.Circuit) *Sim {
	return &Sim{
		c:         c,
		goodVals:  make([]logic.Value, c.NumSignals()),
		badVals:   make([]logic.Value, c.NumSignals()),
		goodState: make([]logic.Value, c.NumDFFs()),
		badState:  make([]logic.Value, c.NumDFFs()),
	}
}

// Detects reports whether fault f is detected by seq applied from the
// all-unknown state, and the first detection time unit (-1 when
// undetected).
func (s *Sim) Detects(f Fault, seq vectors.Sequence) (bool, int) {
	c := s.c
	for i := range s.goodState {
		s.goodState[i] = logic.X
		s.badState[i] = logic.X
	}
	// delivered value of the slow line in the previous cycle.
	prev := logic.X

	for u, vec := range seq {
		for i, pi := range c.PIs {
			s.goodVals[pi] = vec[i]
			s.badVals[pi] = vec[i]
		}
		for i, ff := range c.DFFs {
			s.goodVals[ff.Q] = s.goodState[i]
			s.badVals[ff.Q] = s.badState[i]
		}
		// The slow line may be a PI or flip-flop output; apply the delay
		// before gate evaluation in that case.
		if c.Driver(f.Signal) < 0 {
			s.badVals[f.Signal] = delayed(f, s.badVals[f.Signal], prev)
			prev = s.badVals[f.Signal]
		}
		for gi := range c.Gates {
			g := &c.Gates[gi]
			s.goodVals[g.Out] = evalGate(g, s.goodVals)
			bv := evalGate(g, s.badVals)
			if g.Out == f.Signal {
				bv = delayed(f, bv, prev)
				prev = bv
			}
			s.badVals[g.Out] = bv
		}
		for _, po := range c.POs {
			gv, bv := s.goodVals[po], s.badVals[po]
			if gv.IsBinary() && bv.IsBinary() && gv != bv {
				return true, u
			}
		}
		for i, ff := range c.DFFs {
			s.goodState[i] = s.goodVals[ff.D]
			s.badState[i] = s.badVals[ff.D]
		}
	}
	return false, -1
}

// delayed applies the gross-delay semantics to the computed value given
// the previously delivered value.
func delayed(f Fault, computed, prevDelivered logic.Value) logic.Value {
	if f.SlowToRise {
		return computed.And(prevDelivered)
	}
	return computed.Or(prevDelivered)
}

func evalGate(g *netlist.Gate, vals []logic.Value) logic.Value {
	v := vals[g.In[0]]
	switch g.Type {
	case netlist.Buf:
	case netlist.Not:
		v = v.Not()
	case netlist.And, netlist.Nand:
		for _, in := range g.In[1:] {
			v = v.And(vals[in])
		}
		if g.Type == netlist.Nand {
			v = v.Not()
		}
	case netlist.Or, netlist.Nor:
		for _, in := range g.In[1:] {
			v = v.Or(vals[in])
		}
		if g.Type == netlist.Nor {
			v = v.Not()
		}
	case netlist.Xor, netlist.Xnor:
		for _, in := range g.In[1:] {
			v = v.Xor(vals[in])
		}
		if g.Type == netlist.Xnor {
			v = v.Not()
		}
	}
	return v
}

// Coverage counts how many faults of fl the sequence detects.
func Coverage(c *netlist.Circuit, fl []Fault, seq vectors.Sequence) int {
	s := NewSim(c)
	n := 0
	for _, f := range fl {
		if det, _ := s.Detects(f, seq); det {
			n++
		}
	}
	return n
}

// CoverageOfSet counts the faults detected by any of the sequences, each
// applied from the all-unknown state (the union the BIST session
// achieves).
func CoverageOfSet(c *netlist.Circuit, fl []Fault, set []vectors.Sequence) int {
	s := NewSim(c)
	n := 0
	for _, f := range fl {
		for _, seq := range set {
			if det, _ := s.Detects(f, seq); det {
				n++
				break
			}
		}
	}
	return n
}
