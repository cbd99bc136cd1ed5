// Package tcompact implements vector-restoration static compaction of test
// sequences for synchronous sequential circuits.
//
// It substitutes for the compaction procedure of reference [12] in the
// paper (Pomeranz & Reddy, ICCD 1997), which compacted the STRATEGATE
// sequences used as T0. The restoration principle is the published one:
//
//  1. Fault-simulate T0 and record every fault's first detection time.
//  2. Process faults in decreasing first-detection time. For a fault not
//     yet detected by the restored sequence, restore vectors of T0
//     backwards from its detection time until the restored sequence (the
//     kept vectors in original time order) detects it again.
//  3. After each fault is re-covered, drop all other faults the restored
//     sequence now detects.
//
// The result is a subsequence of T0 (in original order) that detects every
// fault T0 detects, usually considerably shorter.
package tcompact

import (
	"errors"
	"sort"

	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// Stats reports the effect of compaction.
type Stats struct {
	OriginalLen  int
	CompactedLen int
	// Targets is the number of faults detected by the original sequence.
	Targets int
	// Restorations counts single-fault restoration simulations (cost).
	Restorations int
}

// Ratio returns CompactedLen / OriginalLen.
func (s Stats) Ratio() float64 {
	if s.OriginalLen == 0 {
		return 0
	}
	return float64(s.CompactedLen) / float64(s.OriginalLen)
}

// ErrInterrupted is returned by CompactInterruptible when its hook fired.
var ErrInterrupted = errors.New("tcompact: compaction interrupted")

// Compact returns a compacted version of t0 that detects every fault of fl
// that t0 detects.
func Compact(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence) (vectors.Sequence, Stats) {
	out, st, _ := CompactInterruptible(c, fl, t0, nil)
	return out, st
}

// CompactInterruptible is Compact with a cancellation hook: interrupt,
// when non-nil, is polled once per target fault, before that fault's
// restoration, and when it reports true compaction stops with
// ErrInterrupted (and a nil sequence) without simulating further. A hook
// that never fires leaves the result identical to Compact's.
func CompactInterruptible(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, interrupt func() bool) (vectors.Sequence, Stats, error) {
	st := Stats{OriginalLen: t0.Len()}
	if t0.Len() == 0 {
		return nil, st, nil
	}
	base := fsim.Run(c, fl, t0)
	st.Targets = base.NumDetected

	// Faults T0 detects, in decreasing detection-time order.
	order := make([]int, 0, base.NumDetected)
	for i := range fl {
		if base.Detected[i] {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if base.DetTime[order[a]] != base.DetTime[order[b]] {
			return base.DetTime[order[a]] > base.DetTime[order[b]]
		}
		return order[a] < order[b]
	})

	kept := make([]bool, t0.Len())
	covered := make([]bool, len(fl))
	single := fsim.NewSingle(c)

	restored := func() vectors.Sequence {
		seq := make(vectors.Sequence, 0, t0.Len())
		for u, k := range kept {
			if k {
				seq = append(seq, t0[u])
			}
		}
		return seq
	}

	for _, fi := range order {
		if covered[fi] {
			continue
		}
		if interrupt != nil && interrupt() {
			return nil, st, ErrInterrupted
		}
		// Restore vectors backwards from udet(fi) until the kept sequence
		// detects fi. Termination: once every vector of T0[0, udet] is
		// restored, the kept sequence has T0[0, udet] as a prefix, which
		// detects fi by definition of udet.
		udet := base.DetTime[fi]
		cur := restored()
		st.Restorations++
		det, _ := single.Detects(fl[fi], cur)
		u := udet
		// Restore in doubling chunks: one verification simulation per
		// chunk instead of per vector keeps compaction of long sequences
		// tractable, at the cost of occasionally restoring a few vectors
		// more than strictly necessary.
		chunk := 1
		for !det {
			added := 0
			for added < chunk {
				for u >= 0 && kept[u] {
					u--
				}
				if u < 0 {
					break
				}
				kept[u] = true
				added++
			}
			if added == 0 {
				break
			}
			cur = restored()
			st.Restorations++
			det, _ = single.Detects(fl[fi], cur)
			chunk *= 2
		}
		covered[fi] = true

		// Drop every other fault the restored sequence now detects.
		var liveIdx []int
		var live []faults.Fault
		for _, fj := range order {
			if !covered[fj] {
				liveIdx = append(liveIdx, fj)
				live = append(live, fl[fj])
			}
		}
		if len(live) > 0 {
			r := fsim.Run(c, live, cur)
			for k := range live {
				if r.Detected[k] {
					covered[liveIdx[k]] = true
				}
			}
		}
	}

	out := restored()
	st.CompactedLen = out.Len()
	return out, st, nil
}
