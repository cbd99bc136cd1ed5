package core_test

import (
	"slices"
	"testing"

	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/strategy"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// TestCompactPrefillMatchesOracle compacts an anneal result, whose
// Selector memo holds the detections of every trial's step 4, and a copy
// of it without the memo. Both must keep exactly the survivors and
// CompactStats of the memo-free oracle, and the memo-carrying call must
// evaluate fewer gates than the copy: it starts from step 4's detections.
func TestCompactPrefillMatchesOracle(t *testing.T) {
	for _, name := range []string{"s298", "s820"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		t0 := vectors.RandomSequence(xrand.New(3), c.NumPIs(), 90)
		cfg := strategy.Config{Core: core.DefaultConfig(2)}
		cfg.Core.MaxOmissionTrials = 50
		anneal, err := strategy.Get("anneal")
		if err != nil {
			t.Fatal(err)
		}
		out, err := anneal.Select(c, fl, t0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := out.Result
		want, ws := core.OracleCompactSetPasses(c, fl, r, cfg.Core, [4]bool{true, true, true, true})
		var warm, cold []core.Selected
		var warmStats, coldStats core.CompactStats
		bare := &core.Result{Set: r.Set, DetectedByT0: r.DetectedByT0, NumTargets: r.NumTargets, UDet: r.UDet, Sims: r.Sims}
		coldGates := core.GatesOf(func() { cold, coldStats = core.CompactSet(c, fl, bare, cfg.Core) })
		warmGates := core.GatesOf(func() { warm, warmStats = core.CompactSet(c, fl, r, cfg.Core) })
		for _, got := range []struct {
			label string
			set   []core.Selected
			stats core.CompactStats
		}{{"memo", warm, warmStats}, {"no memo", cold, coldStats}} {
			if !slices.EqualFunc(got.set, want, func(a, b core.Selected) bool {
				return a.Seq.Equal(b.Seq) && a.TargetFault == b.TargetFault
			}) {
				t.Errorf("%s %s: %d survivors differ from the oracle's %d", name, got.label, len(got.set), len(want))
			}
			if got.stats.Dropped != ws.Dropped || got.stats.Before != ws.Before || got.stats.After != ws.After {
				t.Errorf("%s %s: stats %v %+v -> %+v, oracle %v %+v -> %+v", name, got.label,
					got.stats.Dropped, got.stats.Before, got.stats.After, ws.Dropped, ws.Before, ws.After)
			}
		}
		if warmGates >= coldGates {
			t.Errorf("%s: compaction with the memo evaluated %d gates, without %d", name, warmGates, coldGates)
		}
		t.Logf("%s: %d trials, %d sequences -> %d; compaction gates %d with the memo, %d without",
			name, out.Trials, len(r.Set), len(warm), warmGates, coldGates)
	}
}
