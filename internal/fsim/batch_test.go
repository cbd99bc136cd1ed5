package fsim

import (
	"fmt"
	"testing"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

func TestTranspose64(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		var a, orig [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		if trial == 0 {
			a = [64]uint64{}
			a[3] = 1 << 40
		}
		orig = a
		transpose64(&a)
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				if got, want := a[i]>>j&1, orig[j]>>i&1; got != want {
					t.Fatalf("trial %d: out[%d] bit %d = %d, want in[%d] bit %d = %d", trial, i, j, got, j, i, want)
				}
			}
		}
	}
}

// wideCircuit synthesizes a circuit with the given number of primary
// inputs, so packing spans more than one 32-input word.
func wideCircuit(t *testing.T, pis int) *netlist.Circuit {
	t.Helper()
	c, err := iscas.Synthesize(iscas.Spec{
		Name: fmt.Sprintf("wide%d", pis), PIs: pis, POs: 8, DFFs: 6, Gates: 160,
		Synthetic: true, Seed: uint64(pis),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// packedCandidate is one test candidate with the stored sequence the
// serial reference expands.
type packedCandidate struct {
	cand   Candidate
	stored vectors.Sequence
}

// mixedCandidates returns k candidates of unequal lengths (1..maxLen)
// with partly-X vectors, every third one leaving out a vector.
func mixedCandidates(rng *xrand.RNG, width, k, maxLen int) []packedCandidate {
	out := make([]packedCandidate, k)
	for j := range out {
		seq := xheavySequence(rng, width, 1+rng.Intn(maxLen))
		p := Pack(seq, width)
		out[j] = packedCandidate{cand: p.Whole(), stored: seq}
		if j%3 == 2 && seq.Len() > 1 {
			i := rng.Intn(seq.Len())
			out[j] = packedCandidate{cand: p.Omitting(i), stored: seq.OmitAt(i)}
		}
	}
	return out
}

// windowCandidates returns up to k windows seq[top-j, end] as slices of
// one packed copy of seq, the shape of Procedure 2's window search.
func windowCandidates(seq vectors.Sequence, width, top, end, k int) []packedCandidate {
	p := Pack(seq, width)
	var out []packedCandidate
	for j := 0; j < k && top-j >= 0; j++ {
		out = append(out, packedCandidate{cand: p.Slice(top-j, end+1).Whole(), stored: seq.Subsequence(top-j, end)})
	}
	return out
}

// omissionCandidates returns seq without each of its first k positions,
// all sharing seq's packed storage.
func omissionCandidates(seq vectors.Sequence, width, k int) []packedCandidate {
	p := Pack(seq, width)
	var out []packedCandidate
	for i := 0; i < k && i < seq.Len(); i++ {
		out = append(out, packedCandidate{cand: p.Omitting(i), stored: seq.OmitAt(i)})
	}
	return out
}

// TestBatchInputsFollowCompose pins the lane input packing to the
// materialized expansion: at every cycle, every lane's primary-input
// values equal vector u of expand.Compose of its stored sequence, under
// every op subset, with omissions, for inputs spanning one to five
// packed words; and a lane is live exactly while its expansion lasts.
func TestBatchInputsFollowCompose(t *testing.T) {
	circuits := []*netlist.Circuit{iscas.S27(), wideCircuit(t, 32), wideCircuit(t, 33), wideCircuit(t, 64), wideCircuit(t, 70), wideCircuit(t, 130)}
	for _, c := range circuits {
		rng := xrand.New(uint64(c.NumPIs()))
		b := NewBatch(c)
		for ops := expand.Ops(0); ops <= expand.AllOps; ops++ {
			for _, n := range []int{1, 3} {
				pcs := mixedCandidates(rng, c.NumPIs(), 9, 6)
				cands := make([]Candidate, len(pcs))
				want := make([]vectors.Sequence, len(pcs))
				for j, pc := range pcs {
					cands[j] = pc.cand
					want[j] = expand.Compose(pc.stored, n, ops)
				}
				b.start(cands, n, ops)
				for u := 0; ; u++ {
					b.loadInputs()
					for j := range pcs {
						if live := b.live>>j&1 == 1; live != (u < want[j].Len()) {
							t.Fatalf("%s ops %04b n=%d: lane %d live=%v at cycle %d, expansion length %d",
								c.Name, ops, n, j, live, u, want[j].Len())
						}
						if b.live>>j&1 == 0 {
							continue
						}
						for i, pi := range c.PIs {
							if got := b.good[pi].Get(uint(j)); got != want[j][u][i] {
								t.Fatalf("%s ops %04b n=%d: lane %d cycle %d input %d = %v, want %v",
									c.Name, ops, n, j, u, i, got, want[j][u][i])
							}
						}
					}
					if b.live == 0 {
						break
					}
				}
			}
		}
	}
}

// faultClasses picks up to per faults of each injection class from the
// uncollapsed universe of c: stem on a primary input, stem on a
// flip-flop output, stem on a gate output, gate-input branch, and
// flip-flop D branch.
func faultClasses(c *netlist.Circuit, per int) map[string][]faults.Fault {
	out := map[string][]faults.Fault{}
	for _, f := range faults.Universe(c) {
		var class string
		switch {
		case f.IsStem() && c.Driver(f.Signal) >= 0:
			class = "stem-gate"
		case f.IsStem() && c.DFFOf(f.Signal) >= 0:
			class = "stem-dff"
		case f.IsStem():
			class = "stem-pi"
		case c.Consumers(f.Signal)[f.Consumer].Kind == netlist.ConsumerDFF:
			class = "branch-dff"
		default:
			class = "branch-gate"
		}
		if len(out[class]) < per {
			out[class] = append(out[class], f)
		}
	}
	return out
}

// serialFirst is the reference: the first candidate whose materialized
// expansion a one-fault Engine detects f on, or -1, and the patterns a
// serial loop with early exit on detection applies up to it: the earlier
// candidates' expanded lengths plus the accepted one's detection time
// plus one. Both engines (default and FullEvaluation) must agree.
func serialFirst(t *testing.T, engs [2]*Engine, pcs []packedCandidate, n int, ops expand.Ops) (int, int64) {
	t.Helper()
	var patterns int64
	for j, pc := range pcs {
		seq := expand.Compose(pc.stored, n, ops)
		r := engs[0].Run(seq)
		if full := engs[1].Run(seq); full.DetTime[0] != r.DetTime[0] {
			t.Fatalf("candidate %d: engine detects at %d, full evaluation at %d", j, r.DetTime[0], full.DetTime[0])
		}
		if r.Detected[0] {
			return j, patterns + int64(r.DetTime[0]+1)
		}
		patterns += int64(seq.Len())
	}
	return -1, patterns
}

// TestBatchMatchesEngine is the detector's contract: for every fault
// class, FirstDetecting returns exactly the candidate a serial loop of
// one-fault Engine runs accepts first, and advances the pattern counter
// by that loop's serial-equivalent count, on lanes of unequal length with
// partly-X inputs, window and omission candidate shapes, and 1 to 64
// lanes.
func TestBatchMatchesEngine(t *testing.T) {
	type setup struct {
		c       *netlist.Circuit
		opsList []expand.Ops
	}
	allOps := make([]expand.Ops, 0, 16)
	for ops := expand.Ops(0); ops <= expand.AllOps; ops++ {
		allOps = append(allOps, ops)
	}
	setups := []setup{
		{iscas.S27(), allOps},
		{iscas.MustLoad("s298"), []expand.Ops{expand.AllOps, expand.OpRepeat | expand.OpShift}},
		{iscas.MustLoad("s1423"), []expand.Ops{expand.AllOps}},
		{wideCircuit(t, 70), []expand.Ops{expand.AllOps, expand.OpComplement | expand.OpReverse}},
	}
	if testing.Short() {
		setups = setups[:2]
	}
	hits, misses, later := 0, 0, 0
	seen := map[string]bool{}
	for _, st := range setups {
		c := st.c
		rng := xrand.New(uint64(c.NumGates()))
		b := NewBatch(c)
		t0 := xheavySequence(rng, c.NumPIs(), 40)
		for i := range t0 {
			if i%2 == 0 {
				t0[i] = vectors.Random(rng, c.NumPIs())
			}
		}
		shapes := []struct {
			name string
			pcs  []packedCandidate
		}{
			{"one", mixedCandidates(rng, c.NumPIs(), 1, 8)},
			{"mixed-64", mixedCandidates(rng, c.NumPIs(), MaxBatch, 8)},
			{"mixed-13", mixedCandidates(rng, c.NumPIs(), 13, 5)},
			{"windows", windowCandidates(t0, c.NumPIs(), 20, 25, MaxBatch)},
			{"omission", omissionCandidates(t0.Subsequence(10, 24), c.NumPIs(), MaxBatch)},
		}
		for class, fl := range faultClasses(c, 2) {
			seen[class] = true
			for _, f := range fl {
				engs := [2]*Engine{
					New(c, []faults.Fault{f}, Options{}),
					New(c, []faults.Fault{f}, Options{FullEvaluation: true}),
				}
				for _, ops := range st.opsList {
					for _, n := range []int{1, 2} {
						for _, sh := range shapes {
							shape, pcs := sh.name, sh.pcs
							cands := make([]Candidate, len(pcs))
							for j := range pcs {
								cands[j] = pcs[j].cand
							}
							want, serialPatterns := serialFirst(t, engs, pcs, n, ops)
							before := PatternsApplied()
							got := b.FirstDetecting(f, cands, n, ops)
							batchPatterns := PatternsApplied() - before
							if got != want {
								t.Fatalf("%s %s %s ops %04b n=%d %s: FirstDetecting = %d, serial Engine = %d",
									c.Name, class, f.Name(c), ops, n, shape, got, want)
							}
							if batchPatterns != serialPatterns {
								t.Fatalf("%s %s %s ops %04b n=%d %s: patterns %d, serial %d",
									c.Name, class, f.Name(c), ops, n, shape, batchPatterns, serialPatterns)
							}
							switch {
							case want < 0:
								misses++
							case want > 0:
								later++
								hits++
							default:
								hits++
							}
						}
					}
				}
			}
		}
	}
	for _, class := range []string{"stem-pi", "stem-dff", "stem-gate", "branch-gate", "branch-dff"} {
		if !seen[class] {
			t.Errorf("no %s fault compared", class)
		}
	}
	if hits == 0 || misses == 0 || later == 0 {
		t.Fatalf("degenerate comparison: %d hits (%d past lane 0), %d misses", hits, later, misses)
	}
}

// TestBatchEmptyAndOversized covers the edges of the candidate count.
func TestBatchEmptyAndOversized(t *testing.T) {
	c := iscas.S27()
	b := NewBatch(c)
	f := faults.CollapsedUniverse(c)[0]
	if got := b.FirstDetecting(f, nil, 1, expand.AllOps); got != -1 {
		t.Fatalf("no candidates: got %d, want -1", got)
	}
	p := Pack(vectors.MustParseSequence("0111 1001"), c.NumPIs())
	cands := make([]Candidate, MaxBatch+1)
	for i := range cands {
		cands[i] = p.Whole()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FirstDetecting accepted more than MaxBatch candidates")
		}
	}()
	b.FirstDetecting(f, cands, 1, expand.AllOps)
}

// TestPackedSliceAndOmit checks the packed sequence helpers against
// their vectors.Sequence counterparts.
func TestPackedSliceAndOmit(t *testing.T) {
	seq := vectors.MustParseSequence("01x1 1001 x111 0000 1x0x")
	p := Pack(seq, 4)
	check := func(name string, got Packed, want vectors.Sequence) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: len %d, want %d", name, got.Len(), want.Len())
		}
		if re := Pack(want, 4); fmt.Sprint(re.words) != fmt.Sprint(got.words) {
			t.Fatalf("%s: words %v, want %v", name, got.words, re.words)
		}
	}
	check("slice", p.Slice(1, 4), seq.Subsequence(1, 3))
	check("omit-first", p.OmitAt(0), seq.OmitAt(0))
	check("omit-last", p.OmitAt(4), seq.OmitAt(4))
	check("omit-of-slice", p.Slice(1, 4).OmitAt(1), seq.Subsequence(1, 3).OmitAt(1))
	if got := p.Omitting(2).length(); got != 4 {
		t.Fatalf("Omitting(2) stores %d vectors, want 4", got)
	}
	if got := p.Whole().length(); got != 5 {
		t.Fatalf("Whole() stores %d vectors, want 5", got)
	}
}
