// Command tables regenerates every table and figure of the paper's
// evaluation section (Tables 1-5 and Figure 1).
//
// Tables 1 and 2 are exact reproductions on the embedded s27. Tables 3-5
// and Figure 1 run the full pipeline (ATPG -> T0 compaction ->
// Procedure 1 -> §3.2 compaction) on the benchmark registry; see
// DESIGN.md for the netlist substitution that makes absolute numbers
// differ from the paper while preserving their shape.
//
// Usage:
//
//	tables -table all                 # fast profile, all tables
//	tables -table 3 -profile full     # the full 12-circuit sweep
//	tables -figure 1 -circuits s298
//	tables -table 5 -circuits s27,s298 -ns 2,4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"seqbist/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and prints the requested tables and figures to stdout,
// with pipeline progress on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	table := fs.String("table", "all", "table to print: 1, 2, 3, 4, 5 or all")
	figure := fs.Int("figure", 0, "figure to print (1), in addition to tables")
	profile := fs.String("profile", "fast", "pipeline profile: fast or full")
	circuits := fs.String("circuits", "", "comma-separated circuit list (overrides profile)")
	ns := fs.String("ns", "", "comma-separated repetition counts (overrides profile)")
	seed := fs.Uint64("seed", 1, "pipeline seed")
	verify := fs.Bool("verify", false, "re-verify coverage of every run (slow)")
	engine := fs.Bool("engine", false, "print the fault-simulation engine's efficiency counters for the run")
	markdown := fs.Bool("md", false, "emit the full paper-vs-measured Markdown report (EXPERIMENTS.md body)")
	strategyStudy := fs.String("strategy-study", "", "compare the synthesis-strategy portfolio (greedy/restart/anneal/genetic) on this circuit and exit")
	studyN := fs.Int("strategy-study-n", 2, "repetition count for -strategy-study")
	_ = fs.Parse(args)

	if *strategyStudy != "" {
		prof := experiments.FastProfile()
		if *profile == "full" {
			prof = experiments.FullProfile()
		}
		prof.Seed = *seed
		study, err := experiments.StrategyStudy(*strategyStudy, prof, *studyN, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, study.Markdown())
		return nil
	}

	needPipeline := *figure == 1 || *table == "all" || *markdown ||
		*table == "3" || *table == "4" || *table == "5"

	if *table == "1" || *table == "all" {
		fmt.Fprintln(stdout, experiments.Table1())
	}
	if *table == "2" || *table == "all" {
		fmt.Fprintln(stdout, experiments.Table2())
	}
	if !needPipeline {
		return nil
	}

	prof := experiments.FastProfile()
	if *profile == "full" {
		prof = experiments.FullProfile()
	}
	prof.Seed = *seed
	if *circuits != "" {
		prof.Circuits = strings.Split(*circuits, ",")
	}
	if *ns != "" {
		prof.Ns = nil
		for _, s := range strings.Split(*ns, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("invalid -ns entry %q", s)
			}
			prof.Ns = append(prof.Ns, n)
		}
	}

	engineBefore := experiments.EngineStats()
	fmt.Fprintf(stderr, "running pipeline on %v with n in %v...\n", prof.Circuits, prof.Ns)
	prof.Progress = func(name string, elapsed time.Duration) {
		fmt.Fprintf(stderr, "  %-8s done in %v\n", name, elapsed.Round(time.Millisecond))
	}
	prof.Trace = func(circuit, stage string, elapsed time.Duration) {
		fmt.Fprintf(stderr, "    %-8s %-24s %v\n", circuit, stage, elapsed.Round(time.Millisecond))
	}
	runs, err := experiments.RunAll(prof)
	if err != nil {
		return err
	}
	experiments.SortByName(runs)

	if *markdown {
		fmt.Fprint(stdout, experiments.MarkdownReport(runs))
	}
	if *table == "3" || *table == "all" {
		fmt.Fprintln(stdout, experiments.Table3(runs))
	}
	if *table == "4" || *table == "all" {
		fmt.Fprintln(stdout, experiments.Table4(runs))
	}
	if *table == "5" || *table == "all" {
		fmt.Fprintln(stdout, experiments.Table5(runs))
	}
	if *figure == 1 || *table == "all" {
		for _, r := range runs {
			fmt.Fprintln(stdout, experiments.Figure1(r))
		}
	}
	if *engine {
		fmt.Fprintln(stdout, experiments.EngineEfficiency(engineBefore, experiments.EngineStats()))
	}
	if *verify {
		if problems := experiments.CoverageCheck(runs); len(problems) > 0 {
			return fmt.Errorf("coverage check failed: %v", problems)
		}
		fmt.Fprintln(stderr, "coverage check passed: every run re-detects all of T0's faults")
	}
	return nil
}
