package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"seqbist/internal/atpg"
	"seqbist/internal/bist"
	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/store"
	"seqbist/internal/strategy"
	"seqbist/internal/tcompact"
	"seqbist/internal/vectors"
)

// TestGreedyMatchesPrePortfolioPipeline is the portfolio's no-regression
// differential: on every registry circuit, the strategy-routed pipeline
// with the default greedy strategy must reproduce the pre-portfolio
// synthesis (ATPG -> T0 compaction -> core.Select -> §3.2 compaction ->
// BIST session) bit for bit — same stored vectors, windows, targets, and
// golden MISR signatures.
func TestGreedyMatchesPrePortfolioPipeline(t *testing.T) {
	names := iscas.TableNames()
	switch {
	case testing.Short():
		names = names[:4]
	case raceEnabled:
		names = names[:len(names)-2]
	}
	cfg := tinyCfg()
	for _, name := range names {
		got, err := Synthesize(context.Background(), JobSpec{Circuit: name, Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Strategy != strategy.Default || got.StrategyTrials != 1 {
			t.Errorf("%s: default synthesis reports strategy %q (%d trials), want %q (1)",
				name, got.Strategy, got.StrategyTrials, strategy.Default)
		}

		// The pre-portfolio pipeline, reconstructed stage by stage.
		c, err := iscas.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		fl := faults.CollapsedUniverse(c)
		gen, err := atpg.Generate(c, fl, atpg.Config{Seed: cfg.Seed, MaxLen: cfg.ATPGMaxLen})
		if err != nil {
			t.Fatal(err)
		}
		t0, _ := tcompact.Compact(c, fl, gen.Seq)
		coreCfg := core.Config{
			N: cfg.N, Seed: cfg.Seed, OmissionRestart: true,
			MaxOmissionTrials: cfg.MaxOmissionTrials,
		}
		res, err := core.Select(c, fl, t0, coreCfg)
		if err != nil {
			t.Fatal(err)
		}
		set, _ := core.CompactSet(c, fl, res, coreCfg)
		var stored []vectors.Sequence
		for _, s := range set {
			stored = append(stored, s.Seq)
		}
		sess, err := bist.NewSession(c, stored, cfg.N)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.RunGolden(); err != nil {
			t.Fatal(err)
		}

		if got.DetectedByT0 != res.NumTargets || got.T0Len != t0.Len() {
			t.Errorf("%s: detected/|T0| = %d/%d, pre-portfolio %d/%d",
				name, got.DetectedByT0, got.T0Len, res.NumTargets, t0.Len())
		}
		st := core.StatsOf(set)
		if got.NumSequences != st.NumSequences || got.TotalLen != st.TotalLen || got.MaxLen != st.MaxLen {
			t.Errorf("%s: stored set (%d,%d,%d), pre-portfolio (%d,%d,%d)",
				name, got.NumSequences, got.TotalLen, got.MaxLen,
				st.NumSequences, st.TotalLen, st.MaxLen)
		}
		if len(got.Sequences) != len(set) {
			t.Fatalf("%s: %d sequences, pre-portfolio %d", name, len(got.Sequences), len(set))
		}
		for i, s := range set {
			gs := got.Sequences[i]
			if gs.Len != s.Seq.Len() || gs.Window != [2]int{s.UStart, s.UDet} ||
				gs.TargetFault != fl[s.TargetFault].Name(c) {
				t.Errorf("%s: sequence %d header diverged: %+v", name, i, gs)
			}
			for vi, v := range s.Seq {
				if gs.Vectors[vi] != v.String() {
					t.Errorf("%s: sequence %d vector %d = %q, pre-portfolio %q",
						name, i, vi, gs.Vectors[vi], v.String())
				}
			}
			want := sess.GoldenSignatures()[i]
			if gs.GoldenMISR != strings.ToLower(gs.GoldenMISR) || gs.GoldenMISR != fmtMISR(want) {
				t.Errorf("%s: sequence %d golden MISR %s, pre-portfolio %s", name, i, gs.GoldenMISR, fmtMISR(want))
			}
		}
	}
}

func fmtMISR(sig uint64) string {
	const hex = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = hex[sig&0xf]
		sig >>= 4
	}
	return string(out)
}

// TestSearchStrategyDeterminism pins the searchers' seed-determinism at
// the service level: the same spec synthesizes to the identical result
// directly, through a persistent service, and from the rehydrated cache
// after a restart on the same store.
func TestSearchStrategyDeterminism(t *testing.T) {
	for _, name := range []string{"restart", "anneal", "genetic"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec := JobSpec{Circuit: "s298", Config: tinyCfg()}
			spec.Config.Seed = 5
			spec.Config.Strategy = name

			a, err := Synthesize(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if a.Strategy != name {
				t.Fatalf("result strategy %q, want %q", a.Strategy, name)
			}
			if a.StrategyTrials < 2 {
				t.Fatalf("searcher reported %d trials", a.StrategyTrials)
			}
			b, err := Synthesize(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEquivalent(a, b) {
				t.Fatal("same seed synthesized different results")
			}

			dir := t.TempDir()
			svc := New(Config{Workers: 1, Store: diskStore(t, dir)})
			st, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitTerminal(t, svc, st.ID, 120*time.Second)
			res, err := svc.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEquivalent(a, res) {
				t.Fatal("service result differs from direct synthesis")
			}
			svc.Close()

			// Restart on the same store: the identical spec must complete
			// instantly from the rehydrated cache with the same bits.
			svc2 := New(Config{Workers: 1, Store: diskStore(t, dir)})
			defer svc2.Close()
			st2, err := svc2.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			fin := waitTerminal(t, svc2, st2.ID, 60*time.Second)
			if !fin.CacheHit {
				t.Error("restarted service re-ran a stored spec")
			}
			res2, err := svc2.Result(st2.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEquivalent(a, res2) {
				t.Fatal("recovered result differs from direct synthesis")
			}
		})
	}
}

// TestStrategyValidation covers the strategy-name rejections at both
// submission edges, and the configurable service default.
func TestStrategyValidation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	spec := fastSpec("s27", 1)
	spec.Config.Strategy = "resyn2"
	if _, err := svc.Submit(spec); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Errorf("bad job strategy: err = %v", err)
	}
	sw := SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: tinyCfg()}
	sw.Config.Strategy = "resyn2"
	if _, err := svc.SubmitSweep(sw); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Errorf("bad sweep strategy: err = %v", err)
	}
	sw.Config.Strategy = ""
	sw.Circuits[0].Override = &MemberOverride{Strategy: "resyn2"}
	if _, err := svc.SubmitSweep(sw); err == nil || !strings.Contains(err.Error(), "member 0") {
		t.Errorf("bad member override strategy: err = %v", err)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("%d jobs queued by rejected submissions", len(jobs))
	}

	// A configured default strategy lands in the submitted spec.
	svc2 := New(Config{Workers: 1, DefaultStrategy: "restart"})
	defer svc2.Close()
	st, err := svc2.Submit(fastSpec("s27", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc2, st.ID, 60*time.Second)
	res, err := svc2.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "restart" {
		t.Errorf("default-strategy result ran %q, want restart", res.Strategy)
	}
}

// TestSweepMemberOverrides drives one sweep whose members share a
// circuit but override strategy and seed per member, and checks each
// member against the equivalent direct synthesis — plus the strategy
// column appearing in the summary table.
func TestSweepMemberOverrides(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	spec := SweepSpec{
		Circuits: []CircuitRef{
			{Circuit: "s27"},
			{Circuit: "s27", Override: &MemberOverride{Strategy: "restart", Seed: 9}},
			{Circuit: "s298", Override: &MemberOverride{MaxOmissionTrials: 5}},
		},
		Config: tinyCfg(),
	}
	st, err := svc.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitSweepTerminal(t, svc, st.ID)
	if fin.State != StateDone || fin.Summary == nil || fin.Summary.Done != 3 {
		t.Fatalf("sweep: state %s summary %+v", fin.State, fin.Summary)
	}

	wantCfgs := []GenConfig{
		spec.Config,
		spec.Circuits[1].Override.apply(spec.Config),
		spec.Circuits[2].Override.apply(spec.Config),
	}
	for i, m := range fin.Members {
		want, err := Synthesize(context.Background(), JobSpec{Circuit: spec.Circuits[i].Circuit, Config: wantCfgs[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEquivalent(m.Result, want) {
			t.Errorf("member %d result differs from direct synthesis with its effective config", i)
		}
	}
	if fin.Members[1].Result.Strategy != "restart" {
		t.Errorf("member 1 ran %q, want restart", fin.Members[1].Result.Strategy)
	}
	if !strings.Contains(fin.Summary.Markdown, "strategy") ||
		!strings.Contains(fin.Summary.Markdown, "restart") {
		t.Errorf("summary table lacks the strategy column:\n%s", fin.Summary.Markdown)
	}
}

// TestSweepRaceMember is the in-process acceptance check for sweep-level
// racing: a strategy=race member fans out one leg per concrete strategy,
// and the kept result must equal the best single-strategy run under the
// canonical comparator (portfolio order breaking ties).
func TestSweepRaceMember(t *testing.T) {
	cfg := tinyCfg()
	cfg.Seed = 3
	cfg.Strategy = strategy.Race

	// Reference: every concrete strategy synthesized directly, best kept
	// by the same comparator the service uses.
	var want *Result
	wantStrategy := ""
	for _, name := range strategy.Concrete() {
		c := cfg
		c.Strategy = name
		res, err := Synthesize(context.Background(), JobSpec{Circuit: "s27", Config: c})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil || res.stats().Less(want.stats()) {
			want, wantStrategy = res, name
		}
	}

	svc := New(Config{Workers: 2})
	defer svc.Close()
	st, err := svc.SubmitSweep(SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitSweepTerminal(t, svc, st.ID)
	if fin.State != StateDone || fin.Summary == nil || fin.Summary.Done != 1 {
		t.Fatalf("race sweep: state %s summary %+v", fin.State, fin.Summary)
	}
	m := fin.Members[0]
	if m.Result == nil {
		t.Fatal("race member has no result")
	}
	if m.Result.Strategy != wantStrategy {
		t.Errorf("race kept %q, want %q", m.Result.Strategy, wantStrategy)
	}
	if !resultsEquivalent(m.Result, want) {
		t.Errorf("race kept a different result than the best single-strategy run")
	}
	if m.JobID == "" {
		t.Error("race member did not adopt the winning leg's job ID")
	}
	// The legs are real jobs: one per concrete strategy.
	if jobs := svc.Jobs(); len(jobs) != len(strategy.Concrete()) {
		t.Errorf("%d jobs for one race member, want %d", len(jobs), len(strategy.Concrete()))
	}
	snap := svc.Metrics()
	if snap.Strategy.Races < 1 {
		t.Errorf("strategy.races = %d, want >= 1", snap.Strategy.Races)
	}
	if snap.Strategy.PerStrategy[wantStrategy].Wins < 1 {
		t.Errorf("winner %q has no win in the metrics: %+v", wantStrategy, snap.Strategy.PerStrategy)
	}
	for _, name := range strategy.Concrete() {
		if snap.Strategy.PerStrategy[name].Runs < 1 {
			t.Errorf("leg %q never counted a run", name)
		}
	}
	if !strings.Contains(fin.Summary.Markdown, wantStrategy) {
		t.Errorf("summary table lacks the winning strategy:\n%s", fin.Summary.Markdown)
	}
}

// TestSweepRaceCancel cancels a racing sweep mid-flight: every leg and
// the member itself must reach a terminal state and the sweep must end
// canceled.
func TestSweepRaceCancel(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 16})
	defer svc.Close()
	cfg := GenConfig{N: 2, Seed: 1, ATPGMaxLen: 600, MaxOmissionTrials: 200, Strategy: strategy.Race}
	st, err := svc.SubmitSweep(SweepSpec{Circuits: []CircuitRef{{Circuit: "s1423"}}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CancelSweep(st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitSweepTerminal(t, svc, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}
	for _, m := range fin.Members {
		if !m.State.Terminal() {
			t.Errorf("member %d left in state %s", m.Index, m.State)
		}
	}
	for _, j := range svc.Jobs() {
		if !j.State.Terminal() {
			t.Errorf("leg %s left in state %s", j.ID, j.State)
		}
	}
}

// TestRaceSweepCrashRecovery rebuilds a service from a store laid out
// the way a SIGKILL leaves a racing sweep whose member never reached the
// queue, and checks recovery re-runs the race and decides it exactly as
// a fresh submission would.
func TestRaceSweepCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st := diskStore(t, dir)
	cfg := tinyCfg()
	cfg.Strategy = strategy.Race
	spec := SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: cfg}
	specJSON, _ := json.Marshal(spec)
	if err := st.PutSweep(store.SweepRecord{
		ID: "sweep-0001", Seq: 1, State: string(StateRunning), Spec: specJSON,
		Members: []store.SweepMemberRecord{{Circuit: "s27", State: string(StateQueued)}},
		Created: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 2, Store: diskStore(t, dir)})
	defer svc.Close()
	fin := waitSweepTerminal(t, svc, "sweep-0001")
	if fin.State != StateDone || fin.Summary == nil || fin.Summary.Done != 1 {
		t.Fatalf("recovered race sweep: state %s summary %+v", fin.State, fin.Summary)
	}

	// Same decision a never-crashed service makes.
	svc2 := New(Config{Workers: 2})
	defer svc2.Close()
	st2, err := svc2.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitSweepTerminal(t, svc2, st2.ID)
	if want.State != StateDone {
		t.Fatalf("reference race sweep state %s", want.State)
	}
	if fin.Members[0].Result.Strategy != want.Members[0].Result.Strategy {
		t.Errorf("recovered race kept %q, fresh race kept %q",
			fin.Members[0].Result.Strategy, want.Members[0].Result.Strategy)
	}
	if !resultsEquivalent(fin.Members[0].Result, want.Members[0].Result) {
		t.Error("recovered race decided on a different result")
	}
}

// raceLegRecords returns the queued leg records (member -1) a live
// fan-out writes for a racing s27 member of sweepID, one per named
// strategy, with IDs and Seqs counting up from first as node would
// number them.
func raceLegRecords(cfg GenConfig, sweepID, node string, first int64, names []string) []store.JobRecord {
	c := iscas.MustLoad("s27")
	var recs []store.JobRecord
	for k, name := range names {
		seq := first + int64(k)
		id := jobID(seq)
		if node != "" {
			id = fmt.Sprintf("job-%s-%06d", node, seq)
		}
		legCfg := cfg
		legCfg.Strategy = name
		spec, _ := json.Marshal(JobSpec{Circuit: "s27", Config: legCfg})
		recs = append(recs, store.JobRecord{
			ID: id, Seq: seq, Key: contentKey(c, "", legCfg.withDefaults()),
			Circuit: "s27", Spec: spec, Node: node, SweepID: sweepID, Member: -1,
			State: string(StateQueued), Submitted: time.Now(),
		})
	}
	return recs
}

// freshRaceResult is the result a never-crashed service keeps for a
// racing s27 member under cfg.
func freshRaceResult(t *testing.T, cfg GenConfig) *Result {
	t.Helper()
	svc := New(Config{Workers: 2})
	defer svc.Close()
	st, err := svc.SubmitSweep(SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitSweepTerminal(t, svc, st.ID)
	if fin.State != StateDone || fin.Members[0].Result == nil {
		t.Fatalf("reference race sweep: state %s", fin.State)
	}
	return fin.Members[0].Result
}

// TestRaceSweepRecoveryReusesLegRecords restarts on a racing sweep whose
// four legs reached the queue before the crash: recovery must re-attach
// the race to those leg records instead of minting four more, and decide
// it exactly as a never-crashed race does.
func TestRaceSweepRecoveryReusesLegRecords(t *testing.T) {
	dir := t.TempDir()
	st := diskStore(t, dir)
	cfg := tinyCfg()
	cfg.Strategy = strategy.Race
	specJSON, _ := json.Marshal(SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: cfg})
	if err := st.PutSweep(store.SweepRecord{
		ID: "sweep-0001", Seq: 1, State: string(StateRunning), Spec: specJSON,
		Members: []store.SweepMemberRecord{{Circuit: "s27", State: string(StateQueued)}},
		Created: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	legs := raceLegRecords(cfg, "sweep-0001", "", 1, strategy.Concrete())
	for _, rec := range legs {
		if err := st.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 2, Store: diskStore(t, dir)})
	defer svc.Close()
	fin := waitSweepTerminal(t, svc, "sweep-0001")
	if fin.State != StateDone || fin.Summary == nil || fin.Summary.Done != 1 {
		t.Fatalf("recovered race sweep: state %s summary %+v", fin.State, fin.Summary)
	}
	jobs := svc.Jobs()
	if len(jobs) != len(legs) {
		t.Fatalf("%d leg jobs after restart, want the %d stored ones", len(jobs), len(legs))
	}
	for i, j := range jobs {
		if j.ID != legs[i].ID {
			t.Errorf("job %d is %s, want stored leg %s", i, j.ID, legs[i].ID)
		}
	}
	if !resultsEquivalent(fin.Members[0].Result, freshRaceResult(t, cfg)) {
		t.Error("recovered race decided on a different result than a never-crashed race")
	}
}

// TestRaceSweepPersistRoundTrip restarts a service after a finished race
// sweep and checks the decided member survives recovery intact.
func TestRaceSweepPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyCfg()
	cfg.Strategy = strategy.Race
	svc := New(Config{Workers: 2, Store: diskStore(t, dir)})
	st, err := svc.SubmitSweep(SweepSpec{Circuits: []CircuitRef{{Circuit: "s27"}}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitSweepTerminal(t, svc, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state %s", fin.State)
	}
	want := fin.Members[0].Result
	svc.Close()

	svc2 := New(Config{Workers: 2, Store: diskStore(t, dir)})
	defer svc2.Close()
	got, err := svc2.Sweep(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || len(got.Members) != 1 {
		t.Fatalf("recovered sweep: %+v", got)
	}
	if !resultsEquivalent(got.Members[0].Result, want) {
		t.Error("recovered race member result differs")
	}
	if got.Summary == nil || got.Summary.Markdown != fin.Summary.Markdown {
		t.Error("recovered race summary differs")
	}
}
