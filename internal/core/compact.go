package core

import (
	"cmp"
	"math/bits"
	"slices"
	"time"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/netlist"
)

// CompactStats reports what §3.2 static compaction did.
type CompactStats struct {
	// Dropped counts sequences removed, per pass (length 4).
	Dropped [4]int
	// Before and After summarize the set sizes.
	Before, After Stats
	// Elapsed is the wall time spent compacting.
	Elapsed time.Duration
}

// CompactSet applies the paper's §3.2 static compaction of S: sequences
// whose expanded versions detect no fault not already detected by
// earlier-simulated sequences are dropped. Four simulation orders are
// used, in the paper's order:
//
//  1. increasing length (drops long sequences that became unnecessary),
//  2. decreasing length (finds short sequences covered by long ones),
//  3. reverse order of generation,
//  4. decreasing number of faults detected during the previous pass.
//
// Ties in passes 1, 2 and 4 go to the lower TargetFault, then to the
// earlier position in res.Set.
//
// The target fault set for every pass is F, the faults detected by T0
// (res.DetectedByT0). Every expanded sequence is simulated from the
// all-unknown state, so whether a sequence detects a fault depends on
// neither the other faults simulated with it nor the pass order, and
// dropping a zero-contribution sequence never changes what the others
// detect; the union of detections of the surviving set is therefore
// still exactly F. Compaction reads and extends the detection memo of
// the Selector that produced res, so it starts from step 4's detections
// and simulates a sequence only for live faults no earlier step or pass
// tested it on (a Result built by hand starts from an empty memo).
// Results of one Selector share its memo, so like the Selector they must
// not be used from two goroutines at once. The returned slice preserves
// the generation order of the survivors.
//
// cfg.Interrupt is polled once per sequence simulated in a pass. When it
// fires, compaction stops and returns the survivors of the passes it
// completed, which still detect all of F; the caller, which knows why it
// canceled, decides whether to use them.
func CompactSet(c *netlist.Circuit, fl []faults.Fault, res *Result, cfg Config) ([]Selected, CompactStats) {
	return CompactSetPasses(c, fl, res, cfg, [4]bool{true, true, true, true})
}

// CompactSetPasses is CompactSet with individual passes enabled or
// disabled, for the pass-order ablation benchmarks.
func CompactSetPasses(c *netlist.Circuit, fl []faults.Fault, res *Result, cfg Config, enabled [4]bool) ([]Selected, CompactStats) {
	start := time.Now()
	stats := CompactStats{Before: StatsOf(res.Set)}
	m := memoFor(c, fl, res, cfg)
	inF := m.newSet()
	for _, fi := range targets(fl, res) {
		inF[fi/64] |= 1 << (fi % 64)
	}

	// set holds positions in res.Set, in generation order.
	set := make([]int, len(res.Set))
	for p := range set {
		set[p] = p
	}
	// detCount[p] = faults detected by sequence p in the most recent pass
	// (pass 4 orders by it).
	detCount := make([]int, len(res.Set))
	// byKey breaks ties: lower TargetFault first, then earlier position.
	byKey := func(p, q int) int {
		return cmp.Or(cmp.Compare(res.Set[p].TargetFault, res.Set[q].TargetFault), cmp.Compare(p, q))
	}
	seqLen := func(p int) int { return res.Set[p].Seq.Len() }

	uncovered := m.newSet()
	keep := make([]bool, len(res.Set))
passes:
	for pass := 0; pass < 4; pass++ {
		if !enabled[pass] {
			continue
		}
		work := append([]int(nil), set...)
		switch pass {
		case 0: // increasing length
			slices.SortFunc(work, func(p, q int) int { return cmp.Or(cmp.Compare(seqLen(p), seqLen(q)), byKey(p, q)) })
		case 1: // decreasing length
			slices.SortFunc(work, func(p, q int) int { return cmp.Or(cmp.Compare(seqLen(q), seqLen(p)), byKey(p, q)) })
		case 2: // reverse order of generation
			slices.Reverse(work)
		case 3: // decreasing previous-pass detection count
			slices.SortFunc(work, func(p, q int) int { return cmp.Or(cmp.Compare(detCount[q], detCount[p]), byKey(p, q)) })
		}

		copy(uncovered, inF)
		for _, p := range work {
			if cfg.interrupted() {
				break passes
			}
			newly := 0
			for w, d := range m.detected(res.Set[p].Seq, uncovered) {
				d &= uncovered[w]
				newly += bits.OnesCount64(d)
				uncovered[w] &^= d
			}
			detCount[p] = newly
			keep[p] = newly > 0
		}

		before := len(set)
		set = slices.DeleteFunc(set, func(p int) bool { return !keep[p] })
		stats.Dropped[pass] = before - len(set)
	}
	out := make([]Selected, len(set))
	for i, p := range set {
		out[i] = res.Set[p]
	}
	stats.After = StatsOf(out)
	stats.Elapsed = time.Since(start)
	return out, stats
}

// VerifyCoverage checks that the expansions of set together detect every
// fault in F (res.DetectedByT0); it returns the indices of any faults
// missed. A nil/empty result certifies the BIST scheme's coverage
// guarantee.
//
// The check is independent of CompactSet's bookkeeping: every detection
// comes from a fresh simulation. Since each expansion starts from the
// all-unknown state, a sequence's detections do not depend on which
// other faults it is simulated with, so each sequence is simulated only
// against the targets no earlier sequence of set detected, and the
// remaining sequences are skipped once every target is covered.
//
// cfg.Interrupt is polled once per sequence. When it fires, the check
// stops and returns the targets not yet confirmed, so an interrupted
// check never certifies; the caller must not report them as missed.
func VerifyCoverage(c *netlist.Circuit, fl []faults.Fault, res *Result, set []Selected, cfg Config) []int {
	live := targets(fl, res)
	sub := make([]faults.Fault, 0, len(live))
	for _, s := range set {
		if len(live) == 0 || cfg.interrupted() {
			break
		}
		sub = sub[:0]
		for _, fi := range live {
			sub = append(sub, fl[fi])
		}
		r := fsim.Run(c, sub, expand.Compose(s.Seq, cfg.N, cfg.expandOps()))
		k := 0
		for j, fi := range live {
			if !r.Detected[j] {
				live[k] = fi
				k++
			}
		}
		live = live[:k]
	}
	if len(live) == 0 {
		return nil
	}
	return live
}

// targets returns the indices into fl of the faults T0 detects, in
// increasing order.
func targets(fl []faults.Fault, res *Result) []int {
	targIdx := make([]int, 0, res.NumTargets)
	for i := range fl {
		if res.DetectedByT0[i] {
			targIdx = append(targIdx, i)
		}
	}
	return targIdx
}
