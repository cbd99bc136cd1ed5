package fsim

// Candidate-parallel two-machine simulation for Procedure 2.
//
// Procedure 2 is two first-success-in-order searches over candidate
// stored sequences for one target fault: the ustart-- window search and
// the random-order omission trials. Batch scores up to 64 candidates in
// one pass: lane j of every logic.Word carries candidate j's own
// fault-free and faulty machine, so one word step advances 64 candidate
// simulations for about the cost of one scalar step. Lane inputs are
// packed straight from the stored vectors through the expansion's index
// map (expansions are never materialized) and bit-transposed into
// per-input words each cycle. The faulty machine is propagated
// event-driven from the injection site and the diverged flip-flops,
// reading every undiverged signal from the fault-free machine: a signal
// is diverged when it differs from the fault-free word in some live lane,
// and a cycle with no diverged flip-flop and an inactive fault site in
// every live lane costs one fault-free evaluation and nothing else.
//
// One candidate is the plain two-machine (fault-free plus one faulty)
// simulation of one sequence. T0 compaction (package tcompact) runs its
// nested restoration candidates through the same first-success search.

import (
	"fmt"
	"math/bits"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
)

// MaxBatch is the number of candidates one Batch pass evaluates: one per
// lane of a logic.Word.
const MaxBatch = 64

// Packed is a test sequence in bit-packed form. Each vector occupies
// w = ⌈width/32⌉ words; word c carries primary inputs [32c, 32c+32):
// input i's CanZero bit at bit i%32 and its CanOne bit at bit 32+i%32.
// Slicing a Packed shares its storage.
type Packed struct {
	words []uint64
	w     int
}

// packWords returns the packed words per vector for a given width.
func packWords(width int) int { return (width + 31) / 32 }

// Pack converts seq, whose vectors have the given width, to packed form.
func Pack(seq vectors.Sequence, width int) Packed {
	w := packWords(width)
	p := Packed{words: make([]uint64, w*len(seq)), w: w}
	for u, vec := range seq {
		row := p.words[w*u:]
		for i, v := range vec {
			if v&logic.Zero != 0 {
				row[i/32] |= 1 << (i % 32)
			}
			if v&logic.One != 0 {
				row[i/32] |= 1 << (32 + i%32)
			}
		}
	}
	return p
}

// Len returns the number of vectors in p.
func (p Packed) Len() int {
	if p.w == 0 {
		return 0
	}
	return len(p.words) / p.w
}

// Slice returns vectors [lo, hi) of p without copying.
func (p Packed) Slice(lo, hi int) Packed {
	return Packed{words: p.words[p.w*lo : p.w*hi : p.w*hi], w: p.w}
}

// OmitAt returns a copy of p without vector i.
func (p Packed) OmitAt(i int) Packed {
	out := make([]uint64, 0, len(p.words)-p.w)
	out = append(out, p.words[:p.w*i]...)
	out = append(out, p.words[p.w*(i+1):]...)
	return Packed{words: out, w: p.w}
}

// Whole returns the candidate that stores all of p.
func (p Packed) Whole() Candidate { return Candidate{seq: p, omit: p.Len()} }

// Omitting returns the candidate that stores p without vector i. The
// vector stays in p's storage; the lane skips it.
func (p Packed) Omitting(i int) Candidate { return Candidate{seq: p, omit: i} }

// Candidate is one stored sequence a Batch lane simulates the expansion
// of: a Packed sequence, optionally with one of its vectors left out.
type Candidate struct {
	seq  Packed
	omit int // left-out position, or seq.Len() for none
}

// length returns the stored length of the candidate.
func (cd Candidate) length() int {
	if cd.omit < cd.seq.Len() {
		return cd.seq.Len() - 1
	}
	return cd.seq.Len()
}

// segment is one S^n block of an expansion: the vectors of the stored
// sequence n times over, optionally complemented, circularly shifted, or
// in reverse order.
type segment struct {
	comp, shift, rev bool
}

// segments lists the S^n blocks of expand.Compose under ops, in order.
func segments(ops expand.Ops, buf *[8]segment) []segment {
	s := append(buf[:0], segment{})
	if ops&expand.OpComplement != 0 {
		for _, g := range s {
			g.comp = !g.comp
			s = append(s, g)
		}
	}
	if ops&expand.OpShift != 0 {
		for _, g := range s {
			g.shift = !g.shift
			s = append(s, g)
		}
	}
	if ops&expand.OpReverse != 0 {
		for i := len(s) - 1; i >= 0; i-- {
			g := s[i]
			g.rev = !g.rev
			s = append(s, g)
		}
	}
	return s
}

// cursor walks one lane's expansion: stored position k of repetition rep
// of segment seg.
type cursor struct {
	words       []uint64
	n, omit     int
	k, rep, seg int
	expandedLen int
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

// Batch is a candidate-parallel two-machine simulator: it finds, for one
// fault, the first of up to MaxBatch candidate stored sequences whose
// expansion detects the fault. It is allocation-free after creation and
// not safe for concurrent use.
type Batch struct {
	c   *netlist.Circuit
	csr *netlist.CSR
	w   int // packed words per vector

	good      []logic.Word // fault-free values of the current cycle
	goodState []logic.Word

	// Faulty-machine sparse state: bad/badState entries are valid only
	// where stamped/listed.
	bad      []logic.Word
	badState []logic.Word
	divDFF   []int32
	newDiv   []int32

	epoch     int64
	sigEpoch  []int64
	gateEpoch []int64
	capEpoch  []int64
	buckets   [][]int32
	capList   []int32
	maxLev    int32
	live      uint64
	det       uint64

	// Lane input packing: one cursor per lane walking the expansion's
	// segments (reps repetitions each), and w blocks of 64 rows, block c
	// for the packed word c of every lane: row j is lane j's word before
	// the transpose; after it, row i holds the CanZero lanes and row
	// 32+i the CanOne lanes of input 32c+i.
	cur    [MaxBatch]cursor
	segs   []segment
	segBuf [8]segment
	reps   int
	rows   []uint64
}

// NewBatch returns a Batch simulator for c.
func NewBatch(c *netlist.Circuit) *Batch {
	w := packWords(c.NumPIs())
	return &Batch{
		c:         c,
		csr:       c.CSR(),
		w:         w,
		good:      make([]logic.Word, c.NumSignals()),
		goodState: make([]logic.Word, c.NumDFFs()),
		bad:       make([]logic.Word, c.NumSignals()),
		badState:  make([]logic.Word, c.NumDFFs()),
		sigEpoch:  make([]int64, c.NumSignals()),
		gateEpoch: make([]int64, c.NumGates()),
		capEpoch:  make([]int64, c.NumDFFs()),
		buckets:   make([][]int32, c.CSR().MaxLevel+1),
		rows:      make([]uint64, w*64),
	}
}

// FirstDetecting returns the lowest index j such that the expansion of
// cands[j] under (n, ops), applied from the all-unknown state, detects
// fault f, or -1 when none does: the candidate a serial loop simulating
// expand.Compose(cands[j], n, ops) for j = 0, 1, ... would accept first.
// It stops as soon as that index is known: every lower lane has run out
// without detecting.
//
// The process-wide pattern counter advances by the serial-equivalent
// count: the vectors those serial calls, in order up to the accepted
// candidate, would have applied.
func (b *Batch) FirstDetecting(f faults.Fault, cands []Candidate, n int, ops expand.Ops) int {
	if len(cands) > MaxBatch {
		panic(fmt.Sprintf("fsim: FirstDetecting with %d candidates, at most %d", len(cands), MaxBatch))
	}
	if len(cands) == 0 {
		return -1
	}
	b.start(cands, n, ops)
	inj := decodeFault(b.c, f)

	best, bestTime := -1, 0
	for u := 0; ; u++ {
		b.loadInputs()
		if b.live == 0 {
			break
		}
		b.stepGood()
		b.det = 0
		b.stepFaulty(f, inj)
		b.captureGood()
		if det := b.det & b.live; det != 0 {
			best, bestTime = bits.TrailingZeros64(det), u
			b.live &= 1<<best - 1
		}
	}

	var patterns int64
	last := len(cands)
	if best >= 0 {
		last = best
		patterns = int64(bestTime + 1)
	}
	for j := 0; j < last; j++ {
		patterns += int64(b.cur[j].expandedLen)
	}
	patternsApplied.Add(patterns)
	return best
}

// start loads one cursor per candidate, marks every non-empty candidate
// live, and resets the fault-free machine to the all-unknown state.
func (b *Batch) start(cands []Candidate, n int, ops expand.Ops) {
	b.reps = 1
	if ops&expand.OpRepeat != 0 {
		b.reps = n
	}
	b.segs = segments(ops, &b.segBuf)
	factor := ops.Len(n)
	b.live = 0
	for j, cd := range cands {
		if cd.seq.w != b.w {
			panic(fmt.Sprintf("fsim: candidate packed %d words wide, circuit needs %d", cd.seq.w, b.w))
		}
		l := cd.length()
		b.cur[j] = cursor{words: cd.seq.words, n: l, omit: cd.omit, expandedLen: factor * l}
		if l > 0 {
			b.live |= 1 << j
		}
	}
	for i := range b.goodState {
		b.goodState[i] = logic.AllX()
	}
	b.divDFF = b.divDFF[:0]
}

// loadInputs retires lanes whose expansion has run out, packs the next
// stored vector of every other live lane through its expansion's index
// map into the row blocks, transposes them, and writes the per-input
// words into the fault-free machine.
func (b *Batch) loadInputs() {
	w, segs, rows, width := b.w, b.segs, b.rows, b.c.NumPIs()
	for m := b.live; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		cur := &b.cur[j]
		if cur.seg == len(segs) {
			b.live &^= 1 << j
			continue
		}
		g := segs[cur.seg]
		p := cur.k
		if p >= cur.omit {
			p++
		}
		vec := cur.words[w*p : w*(p+1)]
		for c, v := range vec {
			if g.shift {
				v = rotateChunk(vec, c, width)
			}
			if g.comp {
				v = bits.RotateLeft64(v, 32)
			}
			rows[c*64+j] = v
		}

		// Advance to the lane's next vector.
		if g.rev {
			cur.k--
			if cur.k < 0 {
				cur.k = cur.n - 1
				cur.rep++
			}
		} else {
			cur.k++
			if cur.k == cur.n {
				cur.k = 0
				cur.rep++
			}
		}
		if cur.rep == b.reps {
			cur.rep = 0
			cur.seg++
			cur.k = 0
			if cur.seg < len(segs) && segs[cur.seg].rev {
				cur.k = cur.n - 1
			}
		}
	}
	if b.live == 0 {
		return
	}
	for c := 0; c < w; c++ {
		transpose64((*[64]uint64)(rows[c*64 : (c+1)*64]))
	}
	for i, pi := range b.c.PIs {
		blk := rows[i/32*64:]
		b.good[pi] = logic.Word{CanZero: blk[i%32], CanOne: blk[32+i%32]}
	}
}

// rotateChunk returns packed word c of the circular left shift of the
// width-input vector vec: input i of the result is input (i+1) mod width
// of vec (vectors.Vector.ShiftLeftCircular), in both bit planes.
func rotateChunk(vec []uint64, c, width int) uint64 {
	const (
		low  = 0x0000000100000001 // bit 0 of each plane
		keep = 0x7FFFFFFF7FFFFFFF // all but bit 31 of each plane
	)
	out := vec[c] >> 1 & keep
	if c+1 < len(vec) {
		out |= (vec[c+1] & low) << 31
	} else {
		out |= (vec[0] & low) << ((width - 1) % 32)
	}
	return out
}

// transpose64 transposes a 64x64 bit matrix in place: bit i of row j
// moves to bit j of row i. Each stage swaps the off-diagonal j x j blocks
// of every 2j x 2j block.
func transpose64(a *[64]uint64) {
	transposeStage(a, 32, 0x00000000FFFFFFFF)
	transposeStage(a, 16, 0x0000FFFF0000FFFF)
	transposeStage(a, 8, 0x00FF00FF00FF00FF)
	transposeStage(a, 4, 0x0F0F0F0F0F0F0F0F)
	transposeStage(a, 2, 0x3333333333333333)
	transposeStage(a, 1, 0x5555555555555555)
}

func transposeStage(a *[64]uint64, j int, m uint64) {
	for k := 0; k < 64; k += 2 * j {
		for i := k; i < k+j; i++ {
			// The &63 masks let the compiler drop the bounds checks.
			t := (a[i&63]>>j ^ a[(i+j)&63]) & m
			a[i&63] ^= t << j
			a[(i+j)&63] ^= t
		}
	}
}

// stepGood evaluates the fault-free machine for the current cycle over
// the whole netlist; the primary-input words are already loaded.
func (b *Batch) stepGood() {
	c, csr, vals := b.c, b.csr, b.good
	for i, ff := range c.DFFs {
		vals[ff.Q] = b.goodState[i]
	}
	for gi := 0; gi < len(csr.Out); gi++ {
		ins := csr.In[csr.InOff[gi]:csr.InOff[gi+1]]
		v := vals[ins[0]]
		switch csr.Type[gi] {
		case netlist.Buf:
		case netlist.Not:
			v = v.Not()
		case netlist.And:
			for _, in := range ins[1:] {
				v = v.And(vals[in])
			}
		case netlist.Nand:
			for _, in := range ins[1:] {
				v = v.And(vals[in])
			}
			v = v.Not()
		case netlist.Or:
			for _, in := range ins[1:] {
				v = v.Or(vals[in])
			}
		case netlist.Nor:
			for _, in := range ins[1:] {
				v = v.Or(vals[in])
			}
			v = v.Not()
		case netlist.Xor:
			for _, in := range ins[1:] {
				v = v.Xor(vals[in])
			}
		case netlist.Xnor:
			for _, in := range ins[1:] {
				v = v.Xor(vals[in])
			}
			v = v.Not()
		}
		vals[csr.Out[gi]] = v
	}
}

// captureGood latches the fault-free next state.
func (b *Batch) captureGood() {
	for i, ff := range b.c.DFFs {
		b.goodState[i] = b.good[ff.D]
	}
}

// differs returns the live lanes in which x and y hold different values.
func (b *Batch) differs(x, y logic.Word) uint64 {
	return ((x.CanZero ^ y.CanZero) | (x.CanOne ^ y.CanOne)) & b.live
}

func (b *Batch) push(gi int32) {
	if b.gateEpoch[gi] != b.epoch {
		b.gateEpoch[gi] = b.epoch
		lev := b.csr.Level[gi]
		b.buckets[lev] = append(b.buckets[lev], gi)
		if lev > b.maxLev {
			b.maxLev = lev
		}
	}
}

func (b *Batch) addCap(di int32) {
	if b.capEpoch[di] != b.epoch {
		b.capEpoch[di] = b.epoch
		b.capList = append(b.capList, di)
	}
}

// activate records the faulty value v of signal sig (which differs from
// the fault-free value in some live lane), notes detections at primary
// outputs, and schedules its fanout.
func (b *Batch) activate(sig int32, v logic.Word) {
	b.bad[sig] = v
	b.sigEpoch[sig] = b.epoch
	id := netlist.SignalID(sig)
	if len(b.csr.POFanout(id)) > 0 {
		gv := b.good[sig]
		b.det |= gv.DefiniteZero()&v.DefiniteOne() | gv.DefiniteOne()&v.DefiniteZero()
	}
	for _, gi := range b.csr.GateFanout(id) {
		b.push(gi)
	}
	for _, di := range b.csr.DFFFanout(id) {
		b.addCap(di)
	}
}

// stepFaulty advances the faulty machine one cycle by active-region
// propagation from the injection site and the diverged flip-flops,
// accumulating primary-output detections into b.det.
func (b *Batch) stepFaulty(f faults.Fault, inj injection) {
	c, csr, goodVals := b.c, b.csr, b.good
	stuck := logic.Broadcast(inj.stuck)

	// Quiescence: no live lane has diverged and the site is inactive
	// (fault-free value definitely the stuck value) in every live lane.
	site := goodVals[f.Signal]
	inactive := site.DefiniteZero()
	if inj.stuck == logic.One {
		inactive = site.DefiniteOne()
	}
	if len(b.divDFF) == 0 && b.live&^inactive == 0 {
		return
	}

	b.epoch++
	epoch := b.epoch
	b.maxLev = 0
	b.capList = b.capList[:0]

	for _, di := range b.divDFF {
		q := c.DFFs[di].Q
		bv := b.badState[di]
		if q == inj.stemSig {
			bv = stuck
		}
		if b.differs(bv, goodVals[q]) != 0 {
			b.activate(int32(q), bv)
		}
		b.addCap(di)
	}
	if inj.stemSig >= 0 && b.sigEpoch[inj.stemSig] != epoch &&
		c.Driver(inj.stemSig) < 0 && b.differs(stuck, goodVals[inj.stemSig]) != 0 {
		b.activate(int32(inj.stemSig), stuck)
	}
	if inj.seedGate >= 0 {
		b.push(inj.seedGate)
	}
	if inj.branchDFF >= 0 {
		b.addCap(inj.branchDFF)
	}

	for lev := int32(1); lev <= b.maxLev; lev++ {
		bucket := b.buckets[lev]
		for bi := 0; bi < len(bucket); bi++ {
			gi := bucket[bi]
			ins := csr.In[csr.InOff[gi]:csr.InOff[gi+1]]
			in := func(p int) logic.Word {
				if gi == inj.branchGate && int32(p) == inj.branchPin {
					return stuck
				}
				sig := ins[p]
				if b.sigEpoch[sig] == epoch {
					return b.bad[sig]
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
			if b.differs(v, goodVals[out]) != 0 {
				b.activate(out, v)
			}
		}
		b.buckets[lev] = bucket[:0]
	}

	// Capture the faulty next state sparsely.
	b.newDiv = b.newDiv[:0]
	for _, di := range b.capList {
		d := c.DFFs[di].D
		bv := goodVals[d]
		if b.sigEpoch[d] == epoch {
			bv = b.bad[d]
		}
		if di == inj.branchDFF {
			bv = stuck
		}
		if b.differs(bv, goodVals[d]) != 0 {
			b.badState[di] = bv
			b.newDiv = append(b.newDiv, di)
		}
	}
	b.divDFF, b.newDiv = b.newDiv, b.divDFF[:0]
}
