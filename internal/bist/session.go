package bist

import (
	"errors"
	"fmt"

	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/sim"
	"seqbist/internal/vectors"
)

// Session models one complete BIST run as the paper describes it: each
// stored sequence S is loaded into the on-chip memory at tester speed,
// expanded on-chip, applied to the circuit at-speed from the unknown
// state, and the output responses are compacted into one MISR signature
// per sequence.
//
// X handling. A signature is only meaningful over deterministic values.
// The fault-free machine starts unknown, so early cycles can produce X at
// the primary outputs. The Session computes, per sequence, a per-cycle
// mask of outputs that are definite in the fault-free machine, and both
// the golden run and every faulty run inject only those (cycle, output)
// positions. A masked faulty value never contributes, so a signature
// mismatch implies a definite fault-free/faulty difference at an unmasked
// position — BIST detection is sound (no false alarms) and at most as
// strong as the fault simulator's detection (X in the faulty machine at an
// unmasked position injects as 0, which can alias with a true 0).
type Session struct {
	c   *netlist.Circuit
	n   int
	set []vectors.Sequence

	mem *Memory

	// golden[i] is the fault-free signature for sequence i.
	golden []uint64
	// masks[i][u] is the per-output definedness mask at cycle u of
	// sequence i's expansion.
	masks [][][]bool
	// expansions[i] is the applied expanded sequence (generated by the
	// hardware expander).
	expansions []vectors.Sequence

	atSpeedCycles int

	// Interrupt, when non-nil, is polled by RunGolden once per stored
	// sequence; when it returns true, RunGolden stops with ErrInterrupted.
	Interrupt func() bool
}

// ErrInterrupted is returned by RunGolden when Session.Interrupt fired.
var ErrInterrupted = errors.New("bist: session interrupted")

// NewSession prepares a BIST session for the stored sequence set with
// repetition count n. The memory is sized to the longest sequence.
func NewSession(c *netlist.Circuit, set []vectors.Sequence, n int) (*Session, error) {
	if n < 1 {
		return nil, fmt.Errorf("bist: repetition count %d", n)
	}
	for _, s := range set {
		if s.Len() == 0 {
			return nil, fmt.Errorf("bist: empty sequence in set")
		}
		if s.Width() != c.NumPIs() {
			return nil, fmt.Errorf("bist: sequence width %d, circuit has %d PIs", s.Width(), c.NumPIs())
		}
	}
	return &Session{
		c:   c,
		n:   n,
		set: set,
		mem: NewMemory(c.NumPIs()),
	}, nil
}

// RunGolden executes the fault-free session: loads each sequence,
// expands it on-chip, applies it, and records golden signatures and
// definedness masks. It must be called before DetectsFault.
func (s *Session) RunGolden() error {
	s.golden = s.golden[:0]
	s.masks = s.masks[:0]
	s.expansions = s.expansions[:0]
	s.atSpeedCycles = 0
	simulator := sim.New(s.c)
	for _, stored := range s.set {
		if s.Interrupt != nil && s.Interrupt() {
			return ErrInterrupted
		}
		if err := s.mem.Load(stored); err != nil {
			return err
		}
		exp := NewExpander(s.mem, s.n)
		var misr MISR
		state := simulator.InitialState()
		po := make([]logic.Value, s.c.NumPOs())
		var expansion vectors.Sequence
		var seqMasks [][]bool
		for {
			vec, ok := exp.Next()
			if !ok {
				break
			}
			expansion = append(expansion, vec)
			simulator.Step(state, vec, po)
			mask := make([]bool, len(po))
			for i, v := range po {
				mask[i] = v.IsBinary()
			}
			seqMasks = append(seqMasks, mask)
			misr.Shift(po, mask)
			s.atSpeedCycles++
		}
		s.golden = append(s.golden, misr.Signature())
		s.masks = append(s.masks, seqMasks)
		s.expansions = append(s.expansions, expansion)
	}
	return nil
}

// GoldenSignatures returns the fault-free signature per stored sequence.
func (s *Session) GoldenSignatures() []uint64 {
	out := make([]uint64, len(s.golden))
	copy(out, s.golden)
	return out
}

// DetectsFault reports whether the BIST session flags fault f: some
// stored sequence's faulty signature differs from its golden signature.
func (s *Session) DetectsFault(f faults.Fault) bool {
	if len(s.golden) != len(s.set) {
		panic("bist: DetectsFault before RunGolden")
	}
	for i := range s.set {
		var misr MISR
		trace := fsim.POTrace(s.c, f, s.expansions[i])
		for u, po := range trace {
			misr.Shift(po, s.masks[i][u])
		}
		if misr.Signature() != s.golden[i] {
			return true
		}
	}
	return false
}

// LoadCycles returns the cumulative tester load cycles (one per stored
// vector, as the paper counts loading time).
func (s *Session) LoadCycles() int { return s.mem.LoadCycles() }

// AtSpeedCycles returns the number of at-speed test cycles applied
// (the total expanded test length, 8n times the total stored length).
func (s *Session) AtSpeedCycles() int { return s.atSpeedCycles }

// MemoryBits returns the on-chip memory size needed for the session: the
// longest stored sequence times the word width.
func (s *Session) MemoryBits() int {
	_, max := vectors.TotalAndMaxLength(s.set)
	return max * s.c.NumPIs()
}
