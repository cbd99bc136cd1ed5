// Command seqbist runs the paper's complete flow on one circuit and
// reports what a BIST integrator needs: the selected subsequence set, its
// storage/loading economics versus T0, the on-chip hardware cost, and the
// per-sequence golden MISR signatures.
//
// Usage:
//
//	seqbist -circuit s298 -n 8
//	seqbist -bench mydesign.bench -n 4 -seed 7
//	seqbist -circuit s27 -t0 t0.txt -n 1    # bring your own T0
//	seqbist -serve :8080 -workers 8         # run as the synthesis daemon
//
//	# Batch sweep against a daemon: submit, stream progress, print the
//	# Table-3-style summary. -sweep takes registry names and/or .bench
//	# paths; "table3" expands to the paper's twelve circuits.
//	seqbist -sweep s27,s298,mydesign.bench -server http://localhost:8080 -n 8
//	seqbist -sweep table3            # no -server: ephemeral in-process daemon
//
// -serve starts the same HTTP service as the seqbistd command (see
// internal/service); all one-shot flags are ignored in that mode. The
// sweep mode is a thin client over POST /v1/sweeps and its NDJSON event
// stream (see API.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"seqbist/internal/atpg"
	"seqbist/internal/bench"
	"seqbist/internal/bist"
	"seqbist/internal/core"
	"seqbist/internal/experiments"
	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/service"
	"seqbist/internal/strategy"
	"seqbist/internal/tcompact"
	"seqbist/internal/vectors"
)

func main() {
	circuit := flag.String("circuit", "", "benchmark name from the registry (e.g. s298)")
	benchFile := flag.String("bench", "", "path to a .bench netlist (alternative to -circuit)")
	n := flag.Int("n", 4, "repetition count for the expansion")
	seed := flag.Uint64("seed", 1, "seed for ATPG and Procedure 2")
	t0File := flag.String("t0", "", "optional file with T0 (whitespace-separated vectors); otherwise ATPG generates it")
	skipCompact := flag.Bool("no-compact", false, "skip §3.2 static compaction of S")
	verilogOut := flag.String("verilog", "", "write the on-chip BIST hardware (expander + MISR) as Verilog to this path")
	fsimWorkers := flag.Int("fsim-workers", 0, "fault-simulation goroutines (0 = one per CPU, 1 = serial)")
	serveAddr := flag.String("serve", "", "run as the synthesis daemon on this address instead of one-shot mode")
	serveWorkers := flag.Int("workers", 4, "daemon synthesis worker-pool size (with -serve and -sweep without -server)")
	sweepList := flag.String("sweep", "", "batch sweep: comma-separated registry names and/or .bench paths, or \"table3\"")
	serverURL := flag.String("server", "", "daemon base URL for -sweep (empty = run an ephemeral in-process daemon)")
	maxTrials := flag.Int("max-omission-trials", 0, "bound Procedure 2 omission simulations per subsequence (0 = unlimited; sweeps on big circuits want a bound)")
	stratName := flag.String("strategy", strategy.Default, "synthesis strategy: greedy (the paper baseline), restart, anneal, genetic, or race (run the whole portfolio, keep the cheapest stored set)")
	flag.Parse()

	// Flag validation rides the service's single validation edge (the
	// placeholder circuit satisfies the shape check; the real circuit or
	// bench resolves per mode below).
	if err := service.ValidateSpec(service.JobSpec{
		Circuit: "s27",
		Config: service.GenConfig{
			Strategy:          *stratName,
			N:                 *n,
			MaxOmissionTrials: *maxTrials,
			Parallelism:       *fsimWorkers,
		},
	}); err != nil {
		fatalf("invalid flags: %v", err)
	}

	if *serveAddr != "" {
		if err := service.Serve(*serveAddr, service.Config{
			Workers:        *serveWorkers,
			SimParallelism: *fsimWorkers,
		}); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *sweepList != "" {
		runSweep(*sweepList, *serverURL, service.GenConfig{
			N:                 *n,
			Seed:              *seed,
			MaxOmissionTrials: *maxTrials,
			SkipCompact:       *skipCompact,
			Parallelism:       *fsimWorkers,
			Strategy:          *stratName,
		}, *serveWorkers)
		return
	}

	c := loadCircuit(*circuit, *benchFile)
	fl := faults.CollapsedUniverse(c)
	fmt.Printf("%s\n", c.Stats())
	fmt.Printf("collapsed stuck-at faults: %d\n\n", len(fl))

	t0 := obtainT0(c, fl, *t0File, *seed)

	cfg := core.Config{N: *n, Seed: *seed, OmissionRestart: true, Parallelism: *fsimWorkers}
	strat, err := strategy.Get(*stratName)
	if err != nil {
		fatalf("%v", err)
	}
	selOut, err := strat.Select(c, fl, t0, strategy.Config{Core: cfg, SkipCompact: *skipCompact})
	if err != nil {
		fatalf("%v", err)
	}
	res := selOut.Result
	if *stratName != strategy.Default {
		fmt.Printf("strategy %s: %d selection trials, kept %s\n\n", *stratName, selOut.Trials, selOut.Winner)
	}
	set := res.Set
	if !*skipCompact {
		set, _ = core.CompactSet(c, fl, res, cfg)
	}
	if missed := core.VerifyCoverage(c, fl, res, set, cfg); len(missed) != 0 {
		fatalf("internal error: %d faults lost by selection", len(missed))
	}

	st := core.StatsOf(set)
	fmt.Printf("T0: %d vectors, detects %d/%d faults\n", t0.Len(), res.NumTargets, len(fl))
	fmt.Printf("selected set S: %d sequences, total %d vectors (%.2f of |T0|), max %d (%.2f of |T0|)\n",
		st.NumSequences, st.TotalLen, float64(st.TotalLen)/float64(t0.Len()),
		st.MaxLen, float64(st.MaxLen)/float64(t0.Len()))
	fmt.Printf("at-speed test length: %d vectors (8n x total)\n\n", 8**n*st.TotalLen)

	var stored []vectors.Sequence
	for _, s := range set {
		stored = append(stored, s.Seq)
	}
	cost := bist.CostOf(c.NumPIs(), *n, stored)
	fmt.Printf("on-chip hardware: %s\n\n", cost)

	sess, err := bist.NewSession(c, stored, *n)
	if err != nil {
		fatalf("%v", err)
	}
	if err := sess.RunGolden(); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("sequences (loaded at tester speed, expanded on-chip):")
	for i, s := range set {
		fmt.Printf("  S%-2d len %-4d window T0[%d,%d] target %s golden MISR %016x\n",
			i+1, s.Seq.Len(), s.UStart, s.UDet, fl[s.TargetFault].Name(c),
			sess.GoldenSignatures()[i])
	}
	fmt.Printf("\ntotal load cycles: %d (loading T0 instead would cost %d)\n",
		sess.LoadCycles(), t0.Len())

	if *verilogOut != "" {
		src, err := bist.GenerateVerilogForSet(c.Name, stored, *n, c.NumPOs())
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*verilogOut, []byte(src), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote BIST hardware RTL to %s\n", *verilogOut)
	}

	run := &experiments.CircuitRun{
		Name: c.Name, TotalFaults: len(fl), DetectedByT0: res.NumTargets,
		T0Len: t0.Len(),
		PerN: []experiments.NRun{{
			N: *n, Before: core.StatsOf(res.Set), After: st, Set: set, Raw: res,
		}},
	}
	fmt.Println()
	fmt.Println(experiments.Figure1(run))
}

func loadCircuit(name, benchFile string) *netlist.Circuit {
	switch {
	case name != "" && benchFile != "":
		fatalf("use either -circuit or -bench, not both")
	case name != "":
		c, err := iscas.Load(name)
		if err != nil {
			fatalf("%v", err)
		}
		return c
	case benchFile != "":
		f, err := os.Open(benchFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		c, err := bench.Parse(f, benchFile)
		if err != nil {
			fatalf("%v", err)
		}
		return c
	}
	fatalf("one of -circuit or -bench is required")
	return nil
}

func obtainT0(c *netlist.Circuit, fl []faults.Fault, t0File string, seed uint64) vectors.Sequence {
	if t0File != "" {
		data, err := os.ReadFile(t0File)
		if err != nil {
			fatalf("%v", err)
		}
		t0, err := vectors.ParseSequence(string(data))
		if err != nil {
			fatalf("parsing %s: %v", t0File, err)
		}
		return t0
	}
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: seed, MaxLen: 4000})
	if err != nil {
		fatalf("%v", err)
	}
	t0, st := tcompact.Compact(c, fl, gen.Seq)
	fmt.Printf("ATPG: %d vectors generated, compacted to %d (ratio %.2f)\n\n",
		st.OriginalLen, st.CompactedLen, st.Ratio())
	return t0
}

// runSweep is the batch-sweep client: build the member list, submit it to
// a daemon (spinning up an ephemeral in-process one when no -server is
// given), stream per-circuit NDJSON progress to stderr, and print the
// aggregated markdown summary to stdout.
func runSweep(list, serverURL string, cfg service.GenConfig, workers int) {
	var refs []service.CircuitRef
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		switch {
		case item == "":
		case item == "table3":
			for _, name := range iscas.TableNames() {
				refs = append(refs, service.CircuitRef{Circuit: name})
			}
		case strings.HasSuffix(item, ".bench"):
			data, err := os.ReadFile(item)
			if err != nil {
				fatalf("%v", err)
			}
			refs = append(refs, service.CircuitRef{Bench: string(data)})
		default:
			refs = append(refs, service.CircuitRef{Circuit: item})
		}
	}
	if len(refs) == 0 {
		fatalf("-sweep: no circuits")
	}

	if serverURL == "" {
		// Ephemeral daemon: same service, loopback listener, torn down on
		// exit. The sweep still exercises the full HTTP path. Upload
		// limits are disabled — the netlists are operator-chosen local
		// files, the same trust level as -bench in one-shot mode.
		svc := service.New(service.Config{
			Workers:     workers,
			BenchLimits: bench.Limits{MaxBytes: -1, MaxSignals: -1},
		})
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("%v", err)
		}
		srv := &http.Server{Handler: service.NewHandler(svc)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		serverURL = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "seqbist: ephemeral daemon on %s\n", serverURL)
	}

	cl := &service.Client{BaseURL: serverURL}
	fin, err := cl.RunSweep(context.Background(), service.SweepSpec{Circuits: refs, Config: cfg},
		func(ev service.SweepEvent) error {
			switch ev.Type {
			case "sweep_started":
				fmt.Fprintf(os.Stderr, "sweep %s: %d circuits\n", ev.SweepID, len(refs))
			case "member_update":
				m := ev.Member
				line := fmt.Sprintf("  [%d] %-8s %s", m.Index, m.Circuit, m.State)
				if m.CacheHit {
					line += " (cache hit)"
				}
				if m.State == service.StateDone && m.Result != nil {
					line += fmt.Sprintf("  cov %.2f  |S| %d  tot %d  max %d",
						m.Result.Coverage, m.Result.NumSequences, m.Result.TotalLen, m.Result.MaxLen)
				}
				if m.Error != "" {
					line += "  error: " + m.Error
				}
				fmt.Fprintln(os.Stderr, line)
			}
			return nil
		})
	if err != nil {
		fatalf("sweep: %v", err)
	}
	if fin.Summary == nil {
		fatalf("sweep %s finished without a summary (state %s)", fin.ID, fin.State)
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %s (%d done, %d failed, %d canceled, %d cache hits)\n",
		fin.ID, fin.State, fin.Summary.Done, fin.Summary.Failed, fin.Summary.Canceled, fin.Summary.CacheHits)
	fmt.Println(fin.Summary.Markdown)
	if fin.Summary.Failed > 0 || fin.State != service.StateDone {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "seqbist: "+format+"\n", args...)
	os.Exit(1)
}
