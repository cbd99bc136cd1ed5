package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_tables.txt from the current output")

// deterministicTables drops Table 4 from a -table all report: its
// columns are wall-time ratios. Every other line (Tables 1, 2, 3 and 5
// and Figure 1) is a pure function of the circuits, the profile and the
// seed.
func deterministicTables(out string) string {
	var kept []string
	inTable4 := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "Table 4:"):
			inTable4 = true
		case inTable4 && line == "":
			inTable4 = false
		case !inTable4:
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestTablesGolden pins the deterministic output of `tables -table all`
// on five registry circuits under the fast profile at seed 1: Tables 1
// and 2 on s27, every column of Tables 3 and 5, and Figure 1. Any change
// to ATPG, T0 compaction, fault simulation, Procedure 1/2, §3.2
// compaction or the best-n rule that moves a number fails it. Regenerate
// with `go test ./cmd/tables -run TestTablesGolden -update`.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline golden test skipped in -short mode")
	}
	var stdout bytes.Buffer
	args := []string{"-table", "all", "-seed", "1", "-circuits", "s27,s298,s344,s382,s526"}
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := deterministicTables(stdout.String())
	golden := filepath.Join("testdata", "golden_tables.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
			}
		}
	}
}
