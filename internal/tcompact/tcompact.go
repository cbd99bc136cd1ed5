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
	// Restorations counts restoration candidates simulated (cost),
	// serial-equivalently: the candidates a one-at-a-time loop would
	// simulate up to the first detecting one.
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
	return CompactFrom(c, fl, t0, fsim.Run(c, fl, t0), interrupt)
}

// CompactFrom is CompactInterruptible for a t0 whose detection record is
// already known: base must be what fsim.Run(c, fl, t0) returns, as
// atpg.Result's Detected, DetTime and NumDetected are for its Seq. It
// skips the fault simulation of t0 that step 1 would otherwise run, and
// returns what CompactInterruptible returns.
func CompactFrom(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, base fsim.Result, interrupt func() bool) (vectors.Sequence, Stats, error) {
	st := Stats{OriginalLen: t0.Len(), Targets: base.NumDetected}
	if t0.Len() == 0 {
		return nil, st, nil
	}

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
	batch := fsim.NewBatch(c)
	var restore []int
	var seqs []vectors.Sequence
	var cands []fsim.Candidate

	// restored appends the kept vectors, in time order, to buf[:0].
	restored := func(buf vectors.Sequence) vectors.Sequence {
		buf = buf[:0]
		for u, k := range kept {
			if k {
				buf = append(buf, t0[u])
			}
		}
		return buf
	}
	// nextCandidate builds candidate len(seqs) from the kept set, in the
	// buffer an earlier target left in that slot, so candidates allocate
	// only the first time a target needs that many.
	nextCandidate := func() {
		k := len(seqs)
		if k < cap(seqs) {
			seqs = seqs[:k+1]
		} else {
			seqs = append(seqs, make(vectors.Sequence, 0, t0.Len()))
		}
		seqs[k] = restored(seqs[k])
	}

	for _, fi := range order {
		if covered[fi] {
			continue
		}
		if interrupt != nil && interrupt() {
			return nil, st, ErrInterrupted
		}
		// Restore vectors backwards from udet(fi) until the kept sequence
		// detects fi, in doubling chunks: the candidates are the kept set,
		// then the kept set plus the next 1, 2, 4, ... unkept vectors at
		// or below udet. Chunks instead of single vectors keep compaction
		// of long sequences tractable, at the cost of occasionally
		// restoring a few vectors more than strictly necessary. The last
		// candidate has T0[0, udet] as a prefix and so detects fi by
		// definition of udet. One Batch pass finds the first detecting
		// candidate; at most log2(udet+1)+2 of them always fit.
		udet := base.DetTime[fi]
		restore = restore[:0]
		for u := udet; u >= 0; u-- {
			if !kept[u] {
				restore = append(restore, u)
			}
		}
		seqs = seqs[:0]
		nextCandidate()
		for end, chunk := 0, 1; end < len(restore); chunk *= 2 {
			next := min(end+chunk, len(restore))
			for _, u := range restore[end:next] {
				kept[u] = true
			}
			end = next
			nextCandidate()
		}
		cands = cands[:0]
		for _, seq := range seqs {
			cands = append(cands, fsim.Pack(seq, c.NumPIs()).Whole())
		}
		j := batch.FirstDetecting(fl[fi], cands, 1, 0)
		if j < 0 {
			j = len(cands) - 1
		}
		st.Restorations += j + 1
		// Candidate j restored the first 2^j - 1 vectors of restore.
		for _, u := range restore[min(1<<j-1, len(restore)):] {
			kept[u] = false
		}
		cur := seqs[j]
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

	out := restored(make(vectors.Sequence, 0, t0.Len()))
	st.CompactedLen = out.Len()
	return out, st, nil
}
