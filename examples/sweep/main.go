// Sweep demonstrates the two sweep axes of the system.
//
// Part 1 explores the repetition count n — the scheme's one tuning knob —
// on a single circuit. Larger n makes each expanded sequence longer (more
// at-speed vectors per stored vector), which lets Procedure 2 store
// shorter subsequences but stretches test time. The paper picks the best
// n per circuit from {2,4,8,16}.
//
// Part 2 sweeps across circuits: it starts an in-process synthesis
// service, submits one batch sweep (registry circuits plus the embedded
// s27 uploaded as a raw .bench body), follows the NDJSON event stream,
// and prints the aggregated Table-3-style summary — the same path
// `seqbist -sweep` and POST /v1/sweeps take.
//
// Usage: go run ./examples/sweep [circuit]   (default s298)
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"seqbist/internal/atpg"
	"seqbist/internal/core"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/report"
	"seqbist/internal/service"
	"seqbist/internal/tcompact"
)

func main() {
	name := "s298"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	c, err := iscas.Load(name)
	if err != nil {
		log.Fatal(err)
	}
	fl := faults.CollapsedUniverse(c)
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: 1, MaxLen: 2000})
	if err != nil {
		log.Fatal(err)
	}
	t0, _ := tcompact.Compact(c, fl, gen.Seq)
	fmt.Printf("%s: |T0| = %d, %d/%d faults detected by T0\n\n",
		name, t0.Len(), gen.NumDetected, len(fl))

	tbl := report.New("Repetition-count sweep (after §3.2 compaction)",
		"n", "|S|", "tot len", "tot/T0", "max len", "max/T0", "test len", "memory bits")
	for _, n := range []int{1, 2, 4, 8, 16} {
		cfg := core.DefaultConfig(n)
		cfg.MaxOmissionTrials = 400
		res, err := core.Select(c, fl, t0, cfg)
		if err != nil {
			log.Fatal(err)
		}
		set, _ := core.CompactSet(c, fl, res, cfg)
		if missed := core.VerifyCoverage(c, fl, res, set, cfg); len(missed) != 0 {
			log.Fatalf("n=%d: coverage broken", n)
		}
		st := core.StatsOf(set)
		tbl.AddRow(
			report.Itoa(n), report.Itoa(st.NumSequences),
			report.Itoa(st.TotalLen), report.Ratio(float64(st.TotalLen)/float64(t0.Len())),
			report.Itoa(st.MaxLen), report.Ratio(float64(st.MaxLen)/float64(t0.Len())),
			report.Itoa(8*n*st.TotalLen), report.Itoa(st.MaxLen*c.NumPIs()))
	}
	fmt.Println(tbl)
	fmt.Println("reading the table: memory (max len) shrinks as n grows; test time (8n x tot) grows.")
	fmt.Println()

	batchSweep()
}

// batchSweep is part 2: one POST /v1/sweeps over several circuits through
// a live (in-process) daemon, streamed as NDJSON.
func batchSweep() {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()
	cl := &service.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	fmt.Println("-- batch sweep over the service (3 registry circuits + 1 uploaded .bench) --")
	fin, err := cl.RunSweep(context.Background(), service.SweepSpec{
		Circuits: []service.CircuitRef{
			{Circuit: "s27"},
			{Circuit: "s298"},
			{Circuit: "s344"},
			{Bench: iscas.S27Source}, // a "user" netlist, uploaded inline
		},
		Config: service.GenConfig{N: 4, Seed: 1, ATPGMaxLen: 500, MaxOmissionTrials: 100},
	}, func(ev service.SweepEvent) error {
		if ev.Type == "member_update" && ev.Member.State.Terminal() {
			fmt.Printf("  %-8s %s\n", ev.Member.Circuit, ev.Member.State)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(fin.Summary.Markdown)
}
