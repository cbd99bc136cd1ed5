package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinyProfile keeps unit tests fast: s27 only, two repetition counts.
func tinyProfile() Profile {
	return Profile{
		Circuits:          []string{"s27", "s298"},
		Ns:                []int{1, 2},
		Seed:              1,
		ATPGMaxLen:        400,
		MaxOmissionTrials: 100,
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	out := Table1()
	for _, want := range []string{
		"000 110 000 110 111 001 111 001",
		"010 111 010 111 101 000 101 000",
		"001 111 001 111 110 000 110 000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	out := Table2()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + rule + 10 time units.
	if len(lines) != 13 {
		t.Fatalf("Table 2 has %d lines:\n%s", len(lines), out)
	}
	// Paper: 9 faults detected at u=1, none at u=0.
	if !strings.Contains(out, "1011") {
		t.Error("Table 2 missing vectors")
	}
	u1 := lines[4]
	if got := strings.Count(u1, "f"); got != 9 {
		t.Errorf("u=1 row lists %d faults, want 9: %q", got, u1)
	}
}

func TestRunCircuitS27(t *testing.T) {
	prof := tinyProfile()
	run, err := RunCircuit("s27", prof)
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalFaults != 32 {
		t.Errorf("total faults = %d, want 32", run.TotalFaults)
	}
	if run.DetectedByT0 == 0 || run.DetectedByT0 > 32 {
		t.Errorf("detected = %d", run.DetectedByT0)
	}
	if run.T0Len == 0 || run.T0Len > run.RawT0Len {
		t.Errorf("T0 lengths: raw %d, compacted %d", run.RawT0Len, run.T0Len)
	}
	if len(run.PerN) != 2 {
		t.Fatalf("PerN = %d entries", len(run.PerN))
	}
	b := run.BestRun()
	if b.After.MaxLen > b.Before.MaxLen || b.After.TotalLen > b.Before.TotalLen {
		t.Error("compaction grew the set")
	}
	if run.SimT0Time <= 0 {
		t.Error("normalizer time not measured")
	}
	if run.TestLen() != 8*b.N*b.After.TotalLen {
		t.Errorf("TestLen = %d", run.TestLen())
	}
}

func TestBestNRule(t *testing.T) {
	runs := []NRun{
		{N: 2, After: coreStats(3, 30, 10), Proc1Time: time.Second},
		{N: 4, After: coreStats(3, 40, 8), Proc1Time: 2 * time.Second},   // smaller max: wins
		{N: 8, After: coreStats(3, 35, 8), Proc1Time: 3 * time.Second},   // equal max, smaller tot: wins
		{N: 16, After: coreStats(3, 35, 8), Proc1Time: time.Millisecond}, // ties, faster: loses to the smaller n
	}
	if got := bestN(runs); got != 2 {
		t.Errorf("bestN = %d, want 2", got)
	}
	// A tie goes to the smaller n wherever it sits in the list.
	swapped := []NRun{runs[3], runs[2]}
	if got := bestN(swapped); got != 1 {
		t.Errorf("bestN(n=16, n=8) = %d, want 1", got)
	}
	if got := bestN(runs[:3]); got != 2 {
		t.Errorf("bestN(first 3) = %d, want 2", got)
	}
	if got := bestN(runs[:2]); got != 1 {
		t.Errorf("bestN(first 2) = %d, want 1", got)
	}
}

func TestRunAllAndTables(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short mode")
	}
	prof := tinyProfile()
	runs, err := RunAll(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d runs", len(runs))
	}
	// Coverage invariant across all runs and repetition counts.
	if problems := CoverageCheck(runs); len(problems) != 0 {
		t.Fatalf("coverage check failed: %v", problems)
	}
	t3 := Table3(runs)
	for _, name := range prof.Circuits {
		if !strings.Contains(t3, name) {
			t.Errorf("Table 3 missing %s:\n%s", name, t3)
		}
	}
	t4 := Table4(runs)
	if strings.Count(t4, "\n") < 4 {
		t.Errorf("Table 4 too short:\n%s", t4)
	}
	t5 := Table5(runs)
	if !strings.Contains(t5, "average") {
		t.Errorf("Table 5 missing average row:\n%s", t5)
	}
	fig := Figure1(runs[0])
	if !strings.Contains(fig, "T0  |") || !strings.Contains(fig, "S1") {
		t.Errorf("Figure 1 malformed:\n%s", fig)
	}
}

func TestRunAllParallelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel pipeline test skipped in -short mode")
	}
	prof := tinyProfile()
	prof.Workers = 2 // force the concurrent path even on one core
	runs, err := RunAll(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(prof.Circuits) {
		t.Fatalf("%d runs, want %d", len(runs), len(prof.Circuits))
	}
	// Results must be in profile order regardless of completion order.
	for i, name := range prof.Circuits {
		if runs[i].Name != name {
			t.Errorf("run %d is %s, want %s", i, runs[i].Name, name)
		}
	}
	// And identical to the sequential path (the pipeline is deterministic
	// per circuit).
	seq, err := RunAll(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		a, b := runs[i].BestRun(), seq[i].BestRun()
		if a.N != b.N || a.After != b.After {
			t.Errorf("%s: parallel and sequential paths disagree", runs[i].Name)
		}
	}
}

// TestRunAllOneWorkerOrderAndStop pins RunAll with one worker: circuits
// run and report progress in profile order, and a failing circuit stops
// every later one from starting.
func TestRunAllOneWorkerOrderAndStop(t *testing.T) {
	prof := tinyProfile()
	prof.Circuits = []string{"s27", "no-such-circuit", "s298"}
	prof.Ns = []int{1}
	prof.Workers = 1
	var seen []string
	prof.Progress = func(name string, _ time.Duration) { seen = append(seen, name) }
	_, err := RunAll(prof)
	if err == nil || !strings.Contains(err.Error(), "no-such-circuit") {
		t.Fatalf("RunAll error = %v, want one naming no-such-circuit", err)
	}
	if want := []string{"s27", "no-such-circuit"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("progress order %v, want %v", seen, want)
	}
}

func TestSortByName(t *testing.T) {
	runs := []*CircuitRun{{Name: "s382"}, {Name: "s27"}, {Name: "s298"}}
	SortByName(runs)
	want := []string{"s27", "s298", "s382"}
	for i, w := range want {
		if runs[i].Name != w {
			t.Errorf("position %d: %s, want %s", i, runs[i].Name, w)
		}
	}
}

func TestAverageRatios(t *testing.T) {
	runs := []*CircuitRun{
		{T0Len: 100, PerN: []NRun{{N: 2, After: coreStats(2, 50, 10)}}},
		{T0Len: 200, PerN: []NRun{{N: 2, After: coreStats(2, 100, 40)}}},
	}
	tot, max := AverageRatios(runs)
	if absDiff(tot, 0.5) > 1e-9 || absDiff(max, 0.15) > 1e-9 {
		t.Errorf("ratios = %v, %v; want 0.5, 0.15", tot, max)
	}
	tot, max = AverageRatios(nil)
	if tot != 0 || max != 0 {
		t.Error("empty ratios not zero")
	}
}
