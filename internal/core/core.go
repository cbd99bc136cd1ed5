// Package core implements the paper's contribution: selection of a set of
// subsequences S of a deterministic test sequence T0 such that the
// on-chip expanded versions of the sequences in S achieve the same fault
// coverage as T0 (Pomeranz & Reddy, DAC 1999, §3).
//
// Three pieces:
//
//   - Select (Procedure 1): repeatedly target the yet-undetected fault
//     with the highest first-detection time under T0, construct a
//     subsequence for it, and fault-simulate its expansion to drop newly
//     covered faults.
//   - FindSubsequence (Procedure 2): for a target fault f, find the
//     latest window T0[ustart, udet(f)] whose expansion detects f, then
//     shrink it by random-order vector omission. Both searches accept
//     the first success in a fixed candidate order; they score up to 64
//     candidates per pass on fsim.Batch and accept the lowest-index
//     success, which is exactly the candidate a one-at-a-time loop
//     accepts, so results and trial counts are those of the serial
//     procedure.
//   - CompactSet (§3.2): drop sequences that became redundant, using four
//     simulation orders (increasing length, decreasing length, reverse
//     generation order, decreasing previous-pass detection count).
//     VerifyCoverage then re-certifies that the survivors detect every
//     fault T0 detects. Every expansion is simulated from the all-unknown
//     state, so whether a sequence detects a fault depends on neither
//     the other faults simulated with it nor the order. A Selector's
//     detection memo therefore answers each (subsequence, fault) pair
//     from one simulation across step 4 of every run on it and the
//     compaction of their results (a known pair is simulated again only
//     to fill an engine lane group); VerifyCoverage, kept independent
//     of the memo, simulates each pair at most once per call.
//
// The package is deterministic given Config.Seed.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// Config controls sequence selection.
type Config struct {
	// N is the repetition count used in the expansion (the paper uses
	// n in {2,4,8,16}; the s27 walkthrough uses 1). Must be >= 1.
	N int
	// Seed drives Procedure 2's random omission order.
	Seed uint64
	// OmissionRestart selects the paper-faithful behaviour of restarting
	// the omission scan from scratch after every accepted omission. When
	// false, a single pass over the time units is made (cheaper; an
	// ablation in the benchmarks).
	OmissionRestart bool
	// MaxOmissionTrials bounds the number of expanded-sequence
	// simulations spent shrinking one subsequence (0 = unlimited). The
	// bound trades subsequence length for run time; coverage is never
	// affected.
	MaxOmissionTrials int
	// DisableOmission skips the omission phase entirely (ablation).
	DisableOmission bool
	// TargetOrder selects which yet-undetected fault Procedure 1 targets
	// next. The paper argues for the highest first-detection time
	// (OrderMaxUDet); the alternatives exist for the ablation benchmarks.
	TargetOrder TargetOrder
	// ExpandOps selects the §2 manipulations used for expansion (zero
	// value means the paper's full set). Subsets exist for the
	// manipulation ablation; the coverage guarantee holds for any subset.
	ExpandOps expand.Ops
	// Deprecated: ignored. Every fault simulation runs on the calling
	// goroutine; the field remains so existing callers still compile.
	Parallelism int
	// Deprecated: ignored. The fault simulator always packs 64 faults
	// per group; the field remains so existing callers still compile.
	Lanes int
	// Interrupt, when non-nil, is polled between units of work (once per
	// targeted fault and once per batch of up to fsim.MaxBatch Procedure 2
	// candidates). When it returns true, selection stops with
	// ErrInterrupted. CompactSet and VerifyCoverage poll it too, once per
	// sequence they simulate, and stop early (see each). The service
	// layer uses this to cancel in-flight jobs promptly.
	Interrupt func() bool
}

// ErrInterrupted is returned by Select/Run when Config.Interrupt fired.
var ErrInterrupted = errors.New("core: selection interrupted")

// interrupted polls the cancellation hook.
func (cfg Config) interrupted() bool {
	return cfg.Interrupt != nil && cfg.Interrupt()
}

// expandOps resolves the configured op set (zero value = the full paper
// expansion).
func (cfg Config) expandOps() expand.Ops {
	if cfg.ExpandOps == 0 {
		return expand.AllOps
	}
	return cfg.ExpandOps
}

// TargetOrder enumerates fault-targeting policies for Procedure 1.
type TargetOrder int

// Target orders.
const (
	// OrderMaxUDet targets the fault with the highest detection time
	// first (the paper's choice: such faults need longer sequences that
	// tend to detect many others).
	OrderMaxUDet TargetOrder = iota
	// OrderMinUDet targets the easiest (earliest-detected) fault first.
	OrderMinUDet
	// OrderRandom targets faults in seeded random order.
	OrderRandom
)

// DefaultConfig returns the paper-faithful configuration with the given
// repetition count.
func DefaultConfig(n int) Config {
	return Config{N: n, Seed: 1, OmissionRestart: true}
}

// Selected is one subsequence chosen for the set S.
type Selected struct {
	// Seq is the stored subsequence S (loaded into on-chip memory).
	Seq vectors.Sequence
	// TargetFault is the index (into the fault list) of the fault this
	// sequence was constructed for.
	TargetFault int
	// UStart, UDet delimit the window T0[UStart, UDet] the sequence was
	// extracted from before omission.
	UStart, UDet int
	// NewlyDetected is the number of additional target faults the
	// expanded sequence detected when it was added.
	NewlyDetected int
}

// Stats summarizes a set of selected sequences.
type Stats struct {
	NumSequences int
	TotalLen     int
	MaxLen       int
}

// Less is the storage-cost order every strategy comparison, the
// sweep-level race and the strategy study share: total stored length,
// then longest stored sequence, then sequence count. Coverage never
// enters it, because every target order covers all of F.
func (s Stats) Less(o Stats) bool {
	if s.TotalLen != o.TotalLen {
		return s.TotalLen < o.TotalLen
	}
	if s.MaxLen != o.MaxLen {
		return s.MaxLen < o.MaxLen
	}
	return s.NumSequences < o.NumSequences
}

// StatsOf computes summary statistics for a set.
func StatsOf(set []Selected) Stats {
	st := Stats{NumSequences: len(set)}
	for _, s := range set {
		st.TotalLen += s.Seq.Len()
		if s.Seq.Len() > st.MaxLen {
			st.MaxLen = s.Seq.Len()
		}
	}
	return st
}

// Result is the outcome of Procedure 1 (and optionally compaction).
type Result struct {
	// Set is the selected sequences in generation order.
	Set []Selected
	// DetectedByT0 flags, per fault-list index, membership in F (the
	// faults T0 detects).
	DetectedByT0 []bool
	// NumTargets is |F|.
	NumTargets int
	// UDet is the first detection time under T0 per fault (fsim.Undetected
	// for faults outside F).
	UDet []int
	// Sims counts Procedure 2 trials as serial-equivalent trials: the
	// candidates a one-at-a-time search would have simulated, i.e. the
	// accepted candidate's index plus one per batch that accepts, the
	// batch size per batch that does not. It is independent of how many
	// candidates one simulation pass scores, and of whether a window
	// search was answered from the Selector's memo.
	Sims int
	// memo is the detection memo of the Selector that produced the
	// result; CompactSet starts from its step-4 detections.
	memo *detectionMemo
}

// Selector holds the circuit-dependent state shared by Procedure 1 and 2.
//
// Procedure 2's inner loop — one target fault checked against thousands
// of candidate expanded sequences — runs on the reused fsim.Batch, which
// scores up to 64 candidates per pass, one per word lane, straight from
// the packed copy of T0 (DESIGN.md §8); the bulk simulations of
// Procedure 1 and §3.2 compaction go through an active-region
// fsim.Engine.
type Selector struct {
	c    *netlist.Circuit
	fl   []faults.Fault
	t0   vectors.Sequence
	cfg  Config
	rng  *xrand.RNG
	sims int
	// Procedure 2 state: T0 packed once for the candidate-parallel
	// detector, which scores up to fsim.MaxBatch candidates per pass
	// (cands is their reused buffer).
	t0p   fsim.Packed
	batch *fsim.Batch
	cands [fsim.MaxBatch]fsim.Candidate
	// An omission scan's sequence, as the positions of the target's
	// window it keeps: the bitset kept and, in order, pos. drop[j] is the
	// window position omission candidate j leaves out, and lanes[u] the
	// candidate that batch lane u simulates.
	kept  []uint64
	pos   []int
	drop  [fsim.MaxBatch]int
	lanes [fsim.MaxBatch]int
	// baseRes memoizes the T0 fault simulation (step 1 of Procedure 1),
	// which depends only on the circuit, fault list, and T0 — strategies
	// that call RunOrder many times on one Selector pay for it once.
	baseRes *fsim.Result
	// memo remembers step-4 and compaction detections per subsequence,
	// each target's window search and the outcome of every omission
	// candidate simulated in a window of at most 64 vectors, across every
	// run on the Selector.
	memo *detectionMemo
}

// NewSelector prepares selection of subsequences of t0 for the given
// circuit and fault list.
func NewSelector(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Selector, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("core: repetition count N=%d, must be >= 1", cfg.N)
	}
	if t0.Len() == 0 {
		return nil, errors.New("core: empty T0")
	}
	if t0.Width() != c.NumPIs() {
		return nil, fmt.Errorf("core: T0 width %d, circuit has %d PIs", t0.Width(), c.NumPIs())
	}
	return &Selector{
		c:     c,
		fl:    fl,
		t0:    t0,
		cfg:   cfg,
		rng:   xrand.New(cfg.Seed),
		t0p:   fsim.Pack(t0, c.NumPIs()),
		batch: fsim.NewBatch(c),
		memo:  newDetectionMemo(c, fl, cfg),
	}, nil
}

// Select runs Procedure 1: it returns a set of subsequences whose
// expansions together detect every fault T0 detects.
func Select(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence, cfg Config) (*Result, error) {
	sel, err := NewSelector(c, fl, t0, cfg)
	if err != nil {
		return nil, err
	}
	// One run scans each target once, so no omission outcome would be
	// read back.
	sel.memo.omits = nil
	return sel.Run()
}

// base simulates T0 once and memoizes the outcome (step 1 of
// Procedure 1).
func (sel *Selector) base() *fsim.Result {
	if sel.baseRes == nil {
		r := fsim.Run(sel.c, sel.fl, sel.t0)
		sel.baseRes = &r
	}
	return sel.baseRes
}

// Targets returns the fault-list indices of the faults T0 detects, in
// index order, alongside their first-detection times (indexed by fault,
// not by position). Strategies use this to enumerate the search space of
// target orders before calling RunOrder.
func (sel *Selector) Targets() (targets []int, detTime []int) {
	base := sel.base()
	targets = make([]int, 0, base.NumDetected)
	for i := range sel.fl {
		if base.Detected[i] {
			targets = append(targets, i)
		}
	}
	return targets, base.DetTime
}

// Reseed replaces the selector's random stream. Strategies that run many
// selection trials on one Selector use it to give each trial an
// independent, reproducible omission order.
func (sel *Selector) Reseed(seed uint64) {
	sel.rng = xrand.New(seed)
}

// Run executes Procedure 1.
func (sel *Selector) Run() (*Result, error) {
	// Step 1: simulate T0; F = detected faults with first detection times.
	base := sel.base()

	// Ftarg as index list, kept sorted by (udet desc, index asc) so step 2
	// is a deterministic pop.
	targ := make([]int, 0, base.NumDetected)
	for i := range sel.fl {
		if base.Detected[i] {
			targ = append(targ, i)
		}
	}
	switch sel.cfg.TargetOrder {
	case OrderMaxUDet:
		sort.Slice(targ, func(a, b int) bool {
			if base.DetTime[targ[a]] != base.DetTime[targ[b]] {
				return base.DetTime[targ[a]] > base.DetTime[targ[b]]
			}
			return targ[a] < targ[b]
		})
	case OrderMinUDet:
		sort.Slice(targ, func(a, b int) bool {
			if base.DetTime[targ[a]] != base.DetTime[targ[b]] {
				return base.DetTime[targ[a]] < base.DetTime[targ[b]]
			}
			return targ[a] < targ[b]
		})
	case OrderRandom:
		sel.rng.Shuffle(targ)
	}
	return sel.runTargets(targ)
}

// RunOrder executes Procedure 1 with an explicit target-priority order:
// order lists fault-list indices, highest priority first. Indices that T0
// does not detect are skipped; detected faults missing from order are
// appended in index order, so every detected fault is always covered.
// Strategies search over such orders — each permutation yields a
// different (coverage-equivalent) subsequence set.
func (sel *Selector) RunOrder(order []int) (*Result, error) {
	base := sel.base()
	targ := make([]int, 0, base.NumDetected)
	seen := make(map[int]bool, len(order))
	for _, fi := range order {
		if fi < 0 || fi >= len(sel.fl) || !base.Detected[fi] || seen[fi] {
			continue
		}
		seen[fi] = true
		targ = append(targ, fi)
	}
	for i := range sel.fl {
		if base.Detected[i] && !seen[i] {
			targ = append(targ, i)
		}
	}
	return sel.runTargets(targ)
}

// runTargets is the shared body of Procedure 1: pop targets in the given
// priority order, construct a subsequence for each (Procedure 2), and
// drop every target the expansion newly detects. Result.Sims counts only
// this run's trials, so repeated runs on one Selector report per-run
// cost.
func (sel *Selector) runTargets(targ []int) (*Result, error) {
	base := sel.base()
	simsBefore := sel.sims
	res := &Result{
		DetectedByT0: base.Detected,
		UDet:         base.DetTime,
		NumTargets:   base.NumDetected,
		memo:         sel.memo,
	}

	remaining := sel.memo.newSet()
	for _, fi := range targ {
		remaining[fi/64] |= 1 << (fi % 64)
	}
	left := len(targ)

	for pos := 0; pos < len(targ) && left > 0; pos++ {
		f := targ[pos]
		if remaining[f/64]>>(f%64)&1 == 0 {
			continue
		}
		if sel.cfg.interrupted() {
			return nil, ErrInterrupted
		}
		// Step 3: Procedure 2 for the selected fault.
		s, ustart, err := sel.FindSubsequence(f)
		if err != nil {
			return nil, err
		}
		// Step 4: simulate remaining targets under Sexp and drop those
		// detected.
		det := sel.memo.detected(s, remaining)
		newly := 0
		for w, d := range det {
			d &= remaining[w]
			newly += bits.OnesCount64(d)
			remaining[w] &^= d
		}
		if remaining[f/64]>>(f%64)&1 != 0 {
			// The construction guarantees the target is detected; a
			// violation indicates an implementation bug.
			return nil, fmt.Errorf("core: expanded sequence failed to detect its target fault %s",
				sel.fl[f].Name(sel.c))
		}
		left -= newly
		res.Set = append(res.Set, Selected{
			Seq:           s,
			TargetFault:   f,
			UStart:        ustart,
			UDet:          base.DetTime[f],
			NewlyDetected: newly,
		})
	}
	res.Sims = sel.sims - simsBefore
	return res, nil
}

// FindSubsequence runs Procedure 2 for fault index f (which must be
// detected by T0). It returns the shrunken subsequence and the ustart of
// the pre-omission window.
func (sel *Selector) FindSubsequence(f int) (vectors.Sequence, int, error) {
	base := sel.base()
	if !base.Detected[f] {
		return nil, 0, fmt.Errorf("core: fault %s not detected by T0", sel.fl[f].Name(sel.c))
	}
	udet := base.DetTime[f]

	// Steps 1-3: find the latest ustart whose expanded window detects f.
	ustart, err := sel.window(f, udet)
	if err != nil {
		return nil, 0, err
	}
	t1 := sel.t0.Subsequence(ustart, udet)
	if sel.cfg.DisableOmission {
		return t1, ustart, nil
	}

	// Steps 4-9: random-order omission.
	omit := sel.omitSinglePass
	if sel.cfg.OmissionRestart {
		omit = sel.omitWithRestart
	}
	t1, err = omit(f, t1, sel.t0p.Slice(ustart, udet+1))
	if err != nil {
		return nil, 0, err
	}
	return t1, ustart, nil
}

// window returns the latest ustart whose expanded window T0[ustart, udet]
// detects f (Procedure 2's steps 1-3). The search depends only on f, T0,
// n and the expansion ops, so a completed one is memoized with the trials
// it charged, and a repeat charges the same count again; a search the
// Interrupt hook cut short stores nothing.
func (sel *Selector) window(f, udet int) (int, error) {
	if w := sel.memo.windows[f]; w.sims > 0 {
		sel.sims += w.sims
		return w.ustart, nil
	}
	start := sel.sims
	// Lane j of a batch is the window T0[top-j, udet].
	for top := udet; top >= 0; top -= fsim.MaxBatch {
		if sel.cfg.interrupted() {
			return 0, ErrInterrupted
		}
		k := min(fsim.MaxBatch, top+1)
		for j := 0; j < k; j++ {
			sel.cands[j] = sel.t0p.Slice(top-j, udet+1).Whole()
		}
		if hit := sel.trial(f, k); hit >= 0 {
			sel.memo.windows[f] = windowSearch{ustart: top - hit, sims: sel.sims - start}
			return top - hit, nil
		}
	}
	// Cannot happen: the expansion of T0[0,udet] begins with T0[0,udet]
	// itself, which detects f at time udet.
	return 0, fmt.Errorf("core: no window of T0 detects %s when expanded; simulator inconsistency",
		sel.fl[f].Name(sel.c))
}

// trial evaluates the first k candidates in sel.cands against fault f
// and returns the index of the first whose expansion detects it, or -1.
// It charges the serial-equivalent trial count to sel.sims: the accepted
// index plus one, or k when nothing is accepted.
func (sel *Selector) trial(f, k int) int {
	hit := sel.batch.FirstDetecting(sel.fl[f], sel.cands[:k], sel.cfg.N, sel.cfg.expandOps())
	if hit >= 0 {
		sel.sims += hit + 1
	} else {
		sel.sims += k
	}
	return hit
}

// omitTrial is trial for the first k omission candidates in sel.cands,
// candidate j keeping the window positions in sel.kept except
// sel.drop[j].
// In a window of at most 64 vectors it asks the memo first: only the
// candidates of unknown outcome ahead of the first known detection are
// simulated, in their order, and every outcome that simulation determined
// is recorded (candidates behind the lowest detecting lane were never
// finished). Whatever the memo answers, the result and the trial count
// charged are trial's. Longer windows, and a Selector whose memo keeps no
// omission outcomes, go straight to trial.
func (sel *Selector) omitTrial(f, k int) int {
	if len(sel.kept) > 1 || sel.memo.omits == nil {
		return sel.trial(f, k)
	}
	hit, u := -1, 0
	for j := 0; j < k; j++ {
		known, detects := sel.memo.omission(f, sel.kept[0]&^(1<<sel.drop[j]))
		if !known {
			sel.cands[u], sel.lanes[u] = sel.cands[j], j
			u++
		} else if detects {
			hit = j
			break
		}
	}
	if u > 0 {
		lane := sel.batch.FirstDetecting(sel.fl[f], sel.cands[:u], sel.cfg.N, sel.cfg.expandOps())
		if lane >= 0 {
			hit, u = sel.lanes[lane], lane+1
		}
		for l := 0; l < u; l++ {
			sel.memo.recordOmission(f, sel.kept[0]&^(1<<sel.drop[sel.lanes[l]]), l == lane)
		}
	}
	if hit >= 0 {
		sel.sims += hit + 1
	} else {
		sel.sims += k
	}
	return hit
}

// keepWindow resets the omission scan's state to a whole window of n
// vectors.
func (sel *Selector) keepWindow(n int) {
	sel.kept = slices.Grow(sel.kept[:0], (n+63)/64)[:(n+63)/64]
	clear(sel.kept)
	sel.pos = slices.Grow(sel.pos[:0], n)[:n]
	for i := range n {
		sel.kept[i/64] |= 1 << (i % 64)
		sel.pos[i] = i
	}
}

// batchSize caps the next omission batch at fsim.MaxBatch, the untried
// rest of the scan, and what is left of the MaxOmissionTrials budget
// since the omission phase began at trial count start; 0 means the
// budget is spent.
func (sel *Selector) batchSize(rest, start int) int {
	k := min(fsim.MaxBatch, rest)
	if budget := sel.cfg.MaxOmissionTrials; budget > 0 {
		k = min(k, budget-(sel.sims-start))
	}
	return max(k, 0)
}

// omitWithRestart is the paper-faithful omission: after every accepted
// omission the scan restarts over the shorter sequence (Procedure 2's
// "go to Step 4"); the loop terminates when a full random-order scan
// accepts nothing. Lane j of a batch omits position perm[b+j]; the
// lowest accepted lane is exactly the omission a one-at-a-time scan
// accepts first.
func (sel *Selector) omitWithRestart(f int, t1 vectors.Sequence, p1 fsim.Packed) (vectors.Sequence, error) {
	start := sel.sims
	sel.keepWindow(t1.Len())
	for {
		perm := sel.rng.Perm(t1.Len())
		if t1.Len() == 1 {
			// Omitting the last vector would leave an empty sequence,
			// which cannot detect anything.
			return t1, nil
		}
		accepted := false
		for b := 0; b < len(perm); {
			k := sel.batchSize(len(perm)-b, start)
			if k == 0 {
				return t1, nil
			}
			if sel.cfg.interrupted() {
				return nil, ErrInterrupted
			}
			for j := 0; j < k; j++ {
				sel.cands[j] = p1.Omitting(perm[b+j])
				sel.drop[j] = sel.pos[perm[b+j]]
			}
			if hit := sel.omitTrial(f, k); hit >= 0 {
				i := perm[b+hit]
				t1, p1 = t1.OmitAt(i), p1.OmitAt(i)
				sel.kept[sel.pos[i]/64] &^= 1 << (sel.pos[i] % 64)
				sel.pos = slices.Delete(sel.pos, i, i+1)
				accepted = true
				break
			}
			b += k
		}
		if !accepted {
			return t1, nil
		}
	}
}

// omitSinglePass is the ablation variant: each time unit is considered at
// most once, in one random order, with accepted omissions applied as the
// scan proceeds. A batch speculates that every earlier candidate in it
// is rejected; after an acceptance the next batch starts right behind
// the accepted position, over the shorter sequence.
func (sel *Selector) omitSinglePass(f int, t1 vectors.Sequence, p1 fsim.Packed) (vectors.Sequence, error) {
	start := sel.sims
	sel.keepWindow(t1.Len())
	perm := sel.rng.Perm(t1.Len())
	for b := 0; b < len(perm) && t1.Len() > 1; {
		k := sel.batchSize(len(perm)-b, start)
		if k == 0 {
			break
		}
		if sel.cfg.interrupted() {
			return nil, ErrInterrupted
		}
		for j := 0; j < k; j++ {
			// perm runs over window positions; the candidate omits the
			// vector at its index in the current sequence, the number
			// of kept positions before it.
			orig := perm[b+j]
			sel.drop[j] = orig
			sel.cands[j] = p1.Omitting(sel.keptBefore(orig))
		}
		hit := sel.omitTrial(f, k)
		if hit < 0 {
			b += k
			continue
		}
		orig := perm[b+hit]
		i := sel.keptBefore(orig)
		t1, p1 = t1.OmitAt(i), p1.OmitAt(i)
		sel.kept[orig/64] &^= 1 << (orig % 64)
		b += hit + 1
	}
	return t1, nil
}

// keptBefore counts the window positions below p the scan keeps.
func (sel *Selector) keptBefore(p int) int {
	n := bits.OnesCount64(sel.kept[p/64] & (1<<(p%64) - 1))
	for _, w := range sel.kept[:p/64] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Sims returns the serial-equivalent number of Procedure 2 trials
// performed (see Result.Sims).
func (sel *Selector) Sims() int { return sel.sims }
