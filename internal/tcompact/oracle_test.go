package tcompact

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"seqbist/internal/atpg"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// serialCompact is vector-restoration compaction one restoration
// simulation at a time: the doubling loop restores 1, 2, 4, ... vectors
// and re-simulates the target fault after each chunk, with a one-fault
// Engine as the detector. It is the reference the batched restoration
// search must match: the same sequence and the same Stats.
func serialCompact(c *netlist.Circuit, fl []faults.Fault, t0 vectors.Sequence) (vectors.Sequence, Stats) {
	st := Stats{OriginalLen: t0.Len()}
	if t0.Len() == 0 {
		return nil, st
	}
	base := fsim.Run(c, fl, t0)
	st.Targets = base.NumDetected
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
	restored := func() vectors.Sequence {
		var seq vectors.Sequence
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
		eng := fsim.New(c, fl[fi:fi+1], fsim.Options{})
		detects := func(seq vectors.Sequence) bool {
			st.Restorations++
			return eng.Run(seq).Detected[0]
		}
		cur := restored()
		det := detects(cur)
		u := base.DetTime[fi]
		for chunk := 1; !det; chunk *= 2 {
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
			det = detects(cur)
		}
		covered[fi] = true

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
	return out, st
}

// TestCompactMatchesSerialRestoration is the batched restoration search's
// contract: on ATPG T0s and random T0s, Compact returns the sequence and
// the Stats (Restorations included) of the serial doubling loop.
func TestCompactMatchesSerialRestoration(t *testing.T) {
	type input struct {
		name string
		c    *netlist.Circuit
		t0   vectors.Sequence
	}
	var inputs []input
	for _, g := range []struct {
		circuit string
		seed    uint64
	}{{"s27", 1}, {"s298", 1}, {"s820", 101}, {"s1196", 1}} {
		c := iscas.MustLoad(g.circuit)
		gen, err := atpg.Generate(c, faults.CollapsedUniverse(c), atpg.Config{Seed: g.seed, MaxLen: 300})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("%s/atpg-seed%d", g.circuit, g.seed), c, gen.Seq})
	}
	rng := xrand.New(17)
	for _, name := range []string{"s27", "s298", "s526"} {
		c := iscas.MustLoad(name)
		for k := 0; k < 2; k++ {
			seq := vectors.RandomSequence(rng, c.NumPIs(), 30+rng.Intn(150))
			inputs = append(inputs, input{fmt.Sprintf("%s/random%d", name, k), c, seq})
		}
	}
	for _, in := range inputs {
		fl := faults.CollapsedUniverse(in.c)
		got, gotSt := Compact(in.c, fl, in.t0)
		want, wantSt := serialCompact(in.c, fl, in.t0)
		if gotSt != wantSt {
			t.Errorf("%s: Stats %+v, serial loop %+v", in.name, gotSt, wantSt)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compacted sequence (%d vectors) differs from the serial loop's (%d)", in.name, got.Len(), want.Len())
		}
	}
}
