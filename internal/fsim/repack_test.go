package fsim

import (
	"reflect"
	"slices"
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// atpgShapedCheck drives a repacking engine and the FullEvaluation
// reference through the call pattern of test generation: each round
// evaluates a pool of candidates from the carried state, then commits
// the best one (most detections, then most divergence) when it detects
// or diverges anything. Every Evaluate and Extend answer, newly order
// included, and the final Result and Now must agree. It returns the
// repacking engine and the committed sequence.
func atpgShapedCheck(t *testing.T, name string, c *netlist.Circuit, fl []faults.Fault, rounds int) (*Engine, vectors.Sequence) {
	t.Helper()
	active := New(c, fl, Options{})
	full := New(c, fl, Options{FullEvaluation: true})
	rng := xrand.New(uint64(len(fl))*31 + 7)
	var committed vectors.Sequence
	for r := 0; r < rounds && active.NumDetected() < len(fl); r++ {
		var best vectors.Sequence
		bestCount, bestDiv := 0, -1
		for p := 0; p < 6; p++ {
			n := 4 + rng.Intn(20)
			var cand vectors.Sequence
			if p%3 == 2 {
				cand = xheavySequence(rng, c.NumPIs(), n)
			} else {
				cand = vectors.RandomSequence(rng, c.NumPIs(), n)
			}
			na, da := active.Evaluate(cand)
			nf, df := full.Evaluate(cand)
			if !slices.Equal(na, nf) || da != df {
				t.Fatalf("%s round %d cand %d: Evaluate (%v, %d), reference (%v, %d)", name, r, p, na, da, nf, df)
			}
			if len(na) > bestCount || (len(na) == bestCount && da > bestDiv) {
				best, bestCount, bestDiv = cand, len(na), da
			}
		}
		if bestCount == 0 && bestDiv <= 0 {
			continue
		}
		na, nf := active.Extend(best), full.Extend(best)
		if !slices.Equal(na, nf) {
			t.Fatalf("%s round %d: Extend newly %v, reference %v", name, r, na, nf)
		}
		committed = append(committed, best...)
	}
	if !reflect.DeepEqual(active.Result(), full.Result()) {
		t.Fatalf("%s: results differ from the reference", name)
	}
	if active.Now() != full.Now() {
		t.Fatalf("%s: Now %d, reference %d", name, active.Now(), full.Now())
	}
	return active, committed
}

// TestRepackMatchesFullATPGShaped runs the ATPG-shaped differential on
// the registry up to s1423. Every circuit whose fault list spans more
// than one group must repack, s1423 must also escalate, and after a
// repack Reset followed by Run must equal a fresh engine's Run.
func TestRepackMatchesFullATPGShaped(t *testing.T) {
	names := []string{"s27", "s298", "s344", "s382", "s400", "s526", "s641", "s820", "s1196", "s1423"}
	if testing.Short() {
		names = names[:4]
	}
	for _, name := range names {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		e, committed := atpgShapedCheck(t, name, c, fl, 40)
		st := e.Stats()
		t.Logf("%s: %d/%d detected over %d vectors, %d groups repacked, %d escalated",
			name, e.NumDetected(), len(fl), e.Now(), st.GroupsRepacked, st.GroupsEscalated)
		if sparse(e) && st.GroupsRepacked == 0 {
			t.Errorf("%s: the live faults fill at most half of their construction groups, but no repack fired", name)
		}
		if name == "s1423" && (st.GroupsRepacked == 0 || st.GroupsEscalated == 0) {
			t.Errorf("%s: want repacks and escalations, got %d and %d", name, st.GroupsRepacked, st.GroupsEscalated)
		}
		e.Reset()
		got := e.Run(committed)
		if want := New(c, fl, Options{}).Run(committed); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Run after Reset differs from a fresh engine's Run", name)
		}
		if want := New(c, fl, Options{FullEvaluation: true}).Run(committed); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Run after Reset differs from the reference", name)
		}
	}
}

// sparse reports whether e's live faults fill at most half of the lanes
// of the construction groups that still hold one: the repack condition,
// evaluated on the packing New built.
func sparse(e *Engine) bool {
	groups, lanes := 0, 0
	for _, g := range e.initGroups {
		n := 0
		for _, fi := range g.fault {
			if !e.detected[fi] {
				n++
			}
		}
		if n > 0 {
			groups++
			lanes += n
		}
	}
	return groups > 1 && 2*lanes <= groups*GroupSize
}
