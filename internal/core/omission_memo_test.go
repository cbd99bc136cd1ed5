package core

import (
	"fmt"
	"slices"
	"testing"

	"seqbist/internal/expand"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// omissionInput is one circuit and T0 the omission-memo tests run on.
type omissionInput struct {
	c   *netlist.Circuit
	t0  vectors.Sequence
	n   int
	ops expand.Ops
}

// omissionInputs returns s27, s298, s526 and, last, a delay line. The
// delay line's windows hold 101 vectors at n = 1 under repetition-only
// expansion, more than the memo keys, so its scans simulate every batch.
func omissionInputs(t *testing.T) []omissionInput {
	in := []omissionInput{{c: iscas.S27(), t0: s27T0(), n: 2}}
	for _, name := range []string{"s298", "s526"} {
		c := iscas.MustLoad(name)
		in = append(in, omissionInput{c: c, t0: vectors.RandomSequence(xrand.New(3), c.NumPIs(), 200), n: 2})
	}
	return append(in, omissionInput{c: delayLine(t, 100), t0: vectors.RandomSequence(xrand.New(6), 2, 140), n: 1, ops: expand.OpRepeat})
}

// strategyShapedOrders returns target orders of the kinds the strategies
// evaluate on one Selector: the greedy order, two successive swap moves
// from it (anneal), a shuffle (restart), and a crossover of the greedy
// order with the shuffle (genetic).
func strategyShapedOrders(sel *Selector, rng *xrand.RNG) [][]int {
	greedy := maxUDetOrder(sel)
	orders := [][]int{greedy}
	cur := greedy
	for range 2 {
		cur = slices.Clone(cur)
		if len(cur) > 1 {
			i, j := rng.Intn(len(cur)), rng.Intn(len(cur))
			cur[i], cur[j] = cur[j], cur[i]
		}
		orders = append(orders, cur)
	}
	shuffled := slices.Clone(greedy)
	rng.Shuffle(shuffled)
	orders = append(orders, shuffled)
	child := slices.Clone(greedy[:len(greedy)/2])
	for _, f := range shuffled {
		if !slices.Contains(child, f) {
			child = append(child, f)
		}
	}
	return append(orders, child)
}

// TestOmissionMemoMatchesSerialOracle runs strategy-shaped trials on one
// Selector in both omission modes and at omission budgets around the
// batch width, in three rounds: the second gives each order the seed of
// the next one, so scans meet candidates earlier trials settled in other
// positions of their batches, and the third draws new seeds. Every Result must equal the serial
// oracle's on a fresh Selector reseeded the same way, field for field
// and trial count included.
func TestOmissionMemoMatchesSerialOracle(t *testing.T) {
	inputs := omissionInputs(t)
	if testing.Short() {
		inputs = inputs[:1]
	}
	for _, in := range inputs {
		fl := faults.CollapsedUniverse(in.c)
		for _, restart := range []bool{true, false} {
			for _, budget := range []int{0, 1, 63, 64, 65} {
				cfg := DefaultConfig(in.n)
				cfg.ExpandOps = in.ops
				cfg.OmissionRestart = restart
				cfg.MaxOmissionTrials = budget
				sel, err := NewSelector(in.c, fl, in.t0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				orders := strategyShapedOrders(sel, xrand.New(11))
				for trial := range 3 * len(orders) {
					i, round := trial%len(orders), trial/len(orders)
					seed := uint64(1 + 10*i)
					switch round {
					case 1:
						seed = uint64(1 + 10*((i+1)%len(orders)))
					case 2:
						seed++
					}
					order := orders[i]
					label := fmt.Sprintf("%s restart=%v budget=%d trial %d", in.c.Name, restart, budget, trial)
					sel.Reseed(seed)
					got, err := sel.RunOrder(order)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					ref, err := NewSelector(in.c, fl, in.t0, cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref.Reseed(seed)
					want, err := newSerialOracle(ref).run(order)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					checkSameResult(t, label, got, want)
				}
			}
		}
	}
}

// TestRepeatedRunOrderAppliesNoPatterns reruns one order with the same
// seed on the same Selector. The window searches, the omission scans and
// step 4 are all answered from the memo, so the rerun applies no pattern
// and returns the same Result, trial count included.
func TestRepeatedRunOrderAppliesNoPatterns(t *testing.T) {
	inputs := omissionInputs(t)
	for _, in := range inputs[:len(inputs)-1] { // not the delay line's long windows
		fl := faults.CollapsedUniverse(in.c)
		for _, restart := range []bool{true, false} {
			label := fmt.Sprintf("%s restart=%v", in.c.Name, restart)
			cfg := DefaultConfig(in.n)
			cfg.ExpandOps = in.ops
			cfg.OmissionRestart = restart
			sel, err := NewSelector(in.c, fl, in.t0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			order := strategyShapedOrders(sel, xrand.New(11))[3]
			sel.Reseed(7)
			first, err := sel.RunOrder(order)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			before := fsim.PatternsApplied()
			sel.Reseed(7)
			again, err := sel.RunOrder(order)
			if err != nil {
				t.Fatalf("%s: rerun: %v", label, err)
			}
			if applied := fsim.PatternsApplied() - before; applied != 0 {
				t.Errorf("%s: the rerun applied %d patterns, want 0", label, applied)
			}
			checkSameResult(t, label+" rerun", again, first)
		}
	}
}

// TestLongWindowsAreNotMemoized runs the delay line, whose windows are
// longer than a one-word key can name, and expects no omission outcome
// recorded.
func TestLongWindowsAreNotMemoized(t *testing.T) {
	inputs := omissionInputs(t)
	in := inputs[len(inputs)-1]
	cfg := DefaultConfig(in.n)
	cfg.ExpandOps = in.ops
	sel, err := NewSelector(in.c, faults.CollapsedUniverse(in.c), in.t0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel.Run()
	if err != nil {
		t.Fatal(err)
	}
	long := false
	for _, s := range res.Set {
		long = long || s.UDet-s.UStart+1 > 64
	}
	if !long {
		t.Fatal("no window is longer than 64 vectors")
	}
	if n := len(sel.memo.omits); n != 0 {
		t.Errorf("%d omission outcomes recorded, want 0", n)
	}
}

// TestSelectKeepsNoOmissionOutcomes checks that the one-shot Select,
// which scans each target once, records no omission outcome.
func TestSelectKeepsNoOmissionOutcomes(t *testing.T) {
	c := iscas.MustLoad("s298")
	res, err := Select(c, faults.CollapsedUniverse(c), vectors.RandomSequence(xrand.New(3), c.NumPIs(), 200), DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.memo.omits != nil {
		t.Errorf("Select kept %d omission outcomes", len(res.memo.omits))
	}
}
