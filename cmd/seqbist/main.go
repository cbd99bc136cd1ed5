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
//
//	# Batch sweep against a daemon: submit, stream progress, print the
//	# Table-3-style summary. -sweep takes registry names and/or .bench
//	# paths; "table3" expands to the paper's twelve circuits.
//	seqbist -sweep s27,s298,mydesign.bench -server http://localhost:8080 -n 8
//	seqbist -sweep table3            # no -server: ephemeral in-process daemon
//
// The one-shot mode runs its flags as one job spec through
// service.Synthesize, the pipeline every daemon job runs, so it prints
// the numbers a seqbistd job with the same spec returns. The sweep mode
// is a thin client over POST /v1/sweeps and its NDJSON event stream (see
// API.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"seqbist/internal/bench"
	"seqbist/internal/bist"
	"seqbist/internal/iscas"
	"seqbist/internal/netlist"
	"seqbist/internal/service"
	"seqbist/internal/strategy"
	"seqbist/internal/vectors"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "seqbist: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and runs the one-shot or sweep mode, writing the
// report to stdout and sweep progress to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("seqbist", flag.ExitOnError)
	circuit := fs.String("circuit", "", "benchmark name from the registry (e.g. s298)")
	benchFile := fs.String("bench", "", "path to a .bench netlist (alternative to -circuit)")
	n := fs.Int("n", 4, "repetition count for the expansion")
	seed := fs.Uint64("seed", 1, "seed for ATPG and Procedure 2")
	t0File := fs.String("t0", "", "optional file with T0 (whitespace-separated vectors); otherwise ATPG generates it")
	skipCompact := fs.Bool("no-compact", false, "skip §3.2 static compaction of S")
	verilogOut := fs.String("verilog", "", "write the on-chip BIST hardware (expander + MISR) as Verilog to this path")
	workers := fs.Int("workers", 4, "ephemeral daemon worker-pool size (with -sweep and no -server)")
	sweepList := fs.String("sweep", "", "batch sweep: comma-separated registry names and/or .bench paths, or \"table3\"")
	serverURL := fs.String("server", "", "daemon base URL for -sweep (empty = run an ephemeral in-process daemon)")
	maxTrials := fs.Int("max-omission-trials", 0, "bound Procedure 2 omission simulations per subsequence (0 = unlimited; sweeps on big circuits want a bound)")
	stratName := fs.String("strategy", strategy.Default, "synthesis strategy: greedy (the paper baseline), restart, anneal, genetic, or race (run the whole portfolio, keep the cheapest stored set)")
	_ = fs.Parse(args)

	cfg := service.GenConfig{
		N:                 *n,
		Seed:              *seed,
		MaxOmissionTrials: *maxTrials,
		SkipCompact:       *skipCompact,
		Strategy:          *stratName,
	}
	if *sweepList != "" {
		// The placeholder circuit satisfies the shape check; each
		// member names its own circuit.
		if err := service.ValidateSpec(service.JobSpec{Circuit: "s27", Config: cfg}); err != nil {
			return fmt.Errorf("invalid flags: %v", err)
		}
		return runSweep(stdout, *sweepList, *serverURL, cfg, *workers)
	}

	spec := service.JobSpec{Circuit: *circuit, Config: cfg}
	var err error
	if spec.Bench, err = readOptional(*benchFile); err != nil {
		return err
	}
	if spec.T0, err = readOptional(*t0File); err != nil {
		return err
	}
	if err := service.ValidateSpec(spec); err != nil {
		return fmt.Errorf("invalid flags: %v", err)
	}
	// The netlist is parsed here as well only for the header and the
	// Verilog geometry; the pipeline resolves the spec itself.
	var c *netlist.Circuit
	if spec.Bench != "" {
		c, err = bench.Parse(strings.NewReader(spec.Bench), *benchFile)
	} else {
		c, err = iscas.Load(spec.Circuit)
	}
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := service.Synthesize(ctx, spec)
	if err != nil {
		return err
	}
	report(stdout, c, spec, res)

	if *verilogOut != "" {
		stored := make([]vectors.Sequence, len(res.Sequences))
		for i, s := range res.Sequences {
			if stored[i], err = vectors.ParseSequence(strings.Join(s.Vectors, " ")); err != nil {
				return fmt.Errorf("stored sequence S%d: %v", i+1, err)
			}
		}
		src, err := bist.GenerateVerilogForSet(c.Name, stored, res.N, c.NumPOs())
		if err != nil {
			return err
		}
		if err := os.WriteFile(*verilogOut, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote BIST hardware RTL to %s\n", *verilogOut)
	}
	return nil
}

// readOptional returns the contents of path, or "" when path is empty.
func readOptional(path string) (string, error) {
	if path == "" {
		return "", nil
	}
	data, err := os.ReadFile(path)
	return string(data), err
}

// report prints a one-shot result.
func report(w io.Writer, c *netlist.Circuit, spec service.JobSpec, res *service.Result) {
	fmt.Fprintf(w, "%s\n", c.Stats())
	fmt.Fprintf(w, "collapsed stuck-at faults: %d\n\n", res.NumFaults)
	if strings.TrimSpace(spec.T0) == "" {
		fmt.Fprintf(w, "ATPG: %d vectors generated, compacted to %d (ratio %.2f)\n\n",
			res.RawT0Len, res.T0Len, float64(res.T0Len)/float64(res.RawT0Len))
	}
	if spec.Config.Strategy != strategy.Default {
		fmt.Fprintf(w, "strategy %s: %d selection trials, kept %s\n\n",
			spec.Config.Strategy, res.StrategyTrials, res.Strategy)
	}
	t0Len := float64(res.T0Len)
	fmt.Fprintf(w, "T0: %d vectors, detects %d/%d faults\n", res.T0Len, res.DetectedByT0, res.NumFaults)
	fmt.Fprintf(w, "selected set S: %d sequences, total %d vectors (%.2f of |T0|), max %d (%.2f of |T0|)\n",
		res.NumSequences, res.TotalLen, float64(res.TotalLen)/t0Len, res.MaxLen, float64(res.MaxLen)/t0Len)
	fmt.Fprintf(w, "at-speed test length: %d vectors (8n x total)\n\n", res.AtSpeedCycles)
	fmt.Fprintf(w, "on-chip hardware: %s\n\n", res.HardwareCost)
	fmt.Fprintln(w, "sequences (loaded at tester speed, expanded on-chip):")
	for i, s := range res.Sequences {
		fmt.Fprintf(w, "  S%-2d len %-4d window T0[%d,%d] target %s golden MISR %s\n",
			i+1, s.Len, s.Window[0], s.Window[1], s.TargetFault, s.GoldenMISR)
	}
	fmt.Fprintf(w, "\ntotal load cycles: %d (loading T0 instead would cost %d)\n", res.LoadCycles, res.T0Len)
}

// runSweep is the batch-sweep client: build the member list, submit it to
// a daemon (spinning up an ephemeral in-process one when no -server is
// given), stream per-circuit NDJSON progress to stderr, and print the
// aggregated markdown summary to stdout.
func runSweep(stdout io.Writer, list, serverURL string, cfg service.GenConfig, workers int) error {
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
				return err
			}
			refs = append(refs, service.CircuitRef{Bench: string(data)})
		default:
			refs = append(refs, service.CircuitRef{Circuit: item})
		}
	}
	if len(refs) == 0 {
		return fmt.Errorf("-sweep: no circuits")
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
			return err
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
		return fmt.Errorf("sweep: %v", err)
	}
	if fin.Summary == nil {
		return fmt.Errorf("sweep %s finished without a summary (state %s)", fin.ID, fin.State)
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %s (%d done, %d failed, %d canceled, %d cache hits)\n",
		fin.ID, fin.State, fin.Summary.Done, fin.Summary.Failed, fin.Summary.Canceled, fin.Summary.CacheHits)
	fmt.Fprintln(stdout, fin.Summary.Markdown)
	if fin.Summary.Failed > 0 || fin.State != service.StateDone {
		return fmt.Errorf("sweep %s ended %s with %d failed members", fin.ID, fin.State, fin.Summary.Failed)
	}
	return nil
}
