package core

import (
	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// detectionMemo is one Selector's record of the simulations Procedure 1
// and §3.2 compaction have already paid for (DESIGN.md §11).
//
// Every expansion is simulated from the all-unknown state, so whether a
// subsequence's expansion detects a fault depends on neither the other
// faults simulated with it nor when it is simulated. Per subsequence
// content the memo therefore keeps two bitsets over the fault list: the
// faults the expansion has been simulated against and those it detects.
// Step 4 of every trial and every compaction pass ask the memo instead of
// simulating, and it simulates only what it has not seen.
//
// Procedure 2's window search (steps 1-3) is a pure function of the
// target, T0, n and the expansion ops, so its outcome is kept per target
// together with the serial-equivalent trial count it charged. The window
// is therefore fixed per target, and an omission candidate is named by
// its target and the window positions it keeps; whether its expansion
// detects the target is kept for every candidate an omission scan
// simulated in a window of at most 64 vectors (one entry each).
type detectionMemo struct {
	c     *netlist.Circuit
	fl    []faults.Fault
	n     int
	ops   expand.Ops
	words int
	// order is fsim's packing order of fl (fsim.PackOrder).
	order []int
	seqs  map[string]*seqEntry
	// windows[f] is target f's completed window search; sims == 0 marks
	// one not yet run (a completed search charges at least one trial).
	windows []windowSearch
	// omits maps an omission candidate to whether its expansion detects
	// its target; nil when nothing will read it (see Select).
	omits map[omitKey]bool
	// key, group, lane, sub and idx are reused buffers.
	key   []byte
	group []int
	lane  []int
	sub   []faults.Fault
	idx   []int
}

// seqEntry holds one subsequence's tested and detected bitsets.
type seqEntry struct {
	tested, detected []uint64
}

// windowSearch is the outcome of one target's window search.
type windowSearch struct {
	ustart, sims int
}

// omitKey names one omission candidate: its target and the positions of
// the target's window T0[ustart, udet] it keeps, as a bitset.
type omitKey struct {
	f    int32
	kept uint64
}

func newDetectionMemo(c *netlist.Circuit, fl []faults.Fault, cfg Config) *detectionMemo {
	return &detectionMemo{
		c:       c,
		fl:      fl,
		n:       cfg.N,
		ops:     cfg.expandOps(),
		words:   (len(fl) + 63) / 64,
		order:   fsim.PackOrder(c, fl),
		seqs:    make(map[string]*seqEntry),
		windows: make([]windowSearch, len(fl)),
		omits:   make(map[omitKey]bool),
	}
}

// memoFor returns res's memo when it was built for the same circuit,
// fault list and expansion as cfg asks for, and a fresh memo otherwise
// (a hand-built Result carries none).
func memoFor(c *netlist.Circuit, fl []faults.Fault, res *Result, cfg Config) *detectionMemo {
	if m := res.memo; m != nil && m.c == c && len(m.fl) == len(fl) &&
		(len(fl) == 0 || &m.fl[0] == &fl[0]) && m.n == cfg.N && m.ops == cfg.expandOps() {
		return m
	}
	return newDetectionMemo(c, fl, cfg)
}

// newSet returns an empty bitset over the fault list.
func (m *detectionMemo) newSet() []uint64 { return make([]uint64, m.words) }

// detected returns the bitset of faults the expansion of s is known to
// detect, after simulating it against the faults of want it has not been
// tested on. The caller must not modify the returned slice.
//
// A memoized simulation is built to cost no more than a plain fsim.Run
// over all of want. That run packs want, in packing order, into plain
// groups of fsim.GroupSize faults. Here the untested faults of whole
// plain groups are packed together into one lane group while they fit,
// and every lane group but the last is padded to full size with tested
// faults of the plain groups it draws from (simulating them again is
// harmless), so that fsim's construction packing is exactly these lane
// groups. A lane only ever shares a group with lanes of the plain groups
// its own lane group draws from, and a group's work is the union of its
// live lanes' fault effects, so each lane group costs at most the plain
// groups it draws from. That bound holds group for group until
// detections thin the groups out to half their lanes; then both runs
// repack their live faults into dense groups, diverged machines first
// (fsim's repack.go), and the gate-count bounds of the oracle tests
// check that the memoized run still costs no more.
func (m *detectionMemo) detected(s vectors.Sequence, want []uint64) []uint64 {
	m.key = m.key[:0]
	for _, v := range s {
		for _, x := range v {
			m.key = append(m.key, byte(x))
		}
	}
	e, ok := m.seqs[string(m.key)]
	if !ok {
		b := make([]uint64, 2*m.words)
		e = &seqEntry{tested: b[:m.words], detected: b[m.words:]}
		m.seqs[string(m.key)] = e
	}
	isTested := func(fi int) bool { return e.tested[fi/64]>>(fi%64)&1 != 0 }

	m.sub, m.idx = m.sub[:0], m.idx[:0]
	// lane holds the plain groups the open lane group draws from, in
	// packing order, and laneUntested counts their untested faults.
	m.lane, m.group = m.lane[:0], m.group[:0]
	laneUntested, groupUntested := 0, 0
	closeLane := func(pad int) {
		for _, fi := range m.lane {
			if isTested(fi) {
				if pad == 0 {
					continue
				}
				pad--
			}
			m.sub = append(m.sub, m.fl[fi])
			m.idx = append(m.idx, fi)
		}
		m.lane, laneUntested = m.lane[:0], 0
	}
	closeGroup := func() {
		if groupUntested > 0 {
			if laneUntested+groupUntested > fsim.GroupSize {
				closeLane(fsim.GroupSize - laneUntested)
			}
			m.lane = append(m.lane, m.group...)
			laneUntested += groupUntested
		}
		m.group, groupUntested = m.group[:0], 0
	}
	for _, fi := range m.order {
		if want[fi/64]>>(fi%64)&1 == 0 {
			continue
		}
		m.group = append(m.group, fi)
		if !isTested(fi) {
			groupUntested++
		}
		if len(m.group) == fsim.GroupSize {
			closeGroup()
		}
	}
	closeGroup()
	closeLane(0)
	if len(m.sub) > 0 {
		r := fsim.Run(m.c, m.sub, expand.Compose(s, m.n, m.ops))
		for j, fi := range m.idx {
			e.tested[fi/64] |= 1 << (fi % 64)
			if r.Detected[j] {
				e.detected[fi/64] |= 1 << (fi % 64)
			}
		}
	}
	return e.detected
}

// omission reports whether the outcome of target f's candidate keeping
// the window positions in kept is known, and if so whether its expansion
// detects f.
func (m *detectionMemo) omission(f int, kept uint64) (known, detects bool) {
	detects, known = m.omits[omitKey{int32(f), kept}]
	return known, detects
}

// recordOmission records whether the expansion of target f's candidate
// keeping the window positions in kept detects f.
func (m *detectionMemo) recordOmission(f int, kept uint64, detects bool) {
	m.omits[omitKey{int32(f), kept}] = detects
}
