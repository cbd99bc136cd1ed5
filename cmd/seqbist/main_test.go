package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"seqbist/internal/service"
)

var (
	t0Line     = regexp.MustCompile(`(?m)^T0: (\d+) vectors, detects (\d+)/(\d+) faults$`)
	setLine    = regexp.MustCompile(`(?m)^selected set S: (\d+) sequences, total (\d+) vectors \([^)]*\), max (\d+) `)
	goldenLine = regexp.MustCompile(`(?m)^  S\d+ +len \d+ +window .* golden MISR ([0-9a-f]{16})$`)
)

// TestOneShotMatchesSynthesize runs the one-shot mode in-process and
// checks that every number it prints equals service.Synthesize's Result
// for the job spec the flags describe: the CLI and a daemon job give the
// same answer.
func TestOneShotMatchesSynthesize(t *testing.T) {
	t0File := filepath.Join(t.TempDir(), "t0.txt")
	const t0 = "0101 1010 1100 0011 1111 0000 1001 0110 0111 1000 1011 0100"
	if err := os.WriteFile(t0File, []byte(t0), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		spec service.JobSpec
	}{
		{"s344 atpg", []string{"-circuit", "s344", "-n", "4"},
			service.JobSpec{Circuit: "s344", Config: service.GenConfig{N: 4}}},
		{"s298 bounded omission", []string{"-circuit", "s298", "-n", "4", "-max-omission-trials", "1"},
			service.JobSpec{Circuit: "s298", Config: service.GenConfig{N: 4, MaxOmissionTrials: 1}}},
		{"s27 t0 race", []string{"-circuit", "s27", "-n", "1", "-t0", t0File, "-strategy", "race"},
			service.JobSpec{Circuit: "s27", T0: t0, Config: service.GenConfig{N: 1, Strategy: "race"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			want, err := service.Synthesize(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			got := out.String()
			if m := t0Line.FindStringSubmatch(got); m == nil {
				t.Fatalf("no T0 line in:\n%s", got)
			} else if g, w := atoi(t, m[1:]), []int{want.T0Len, want.DetectedByT0, want.NumFaults}; !reflect.DeepEqual(g, w) {
				t.Errorf("|T0|, detected, faults = %v, Synthesize %v", g, w)
			}
			if m := setLine.FindStringSubmatch(got); m == nil {
				t.Fatalf("no selected-set line in:\n%s", got)
			} else if g, w := atoi(t, m[1:]), []int{want.NumSequences, want.TotalLen, want.MaxLen}; !reflect.DeepEqual(g, w) {
				t.Errorf("|S|, total, max = %v, Synthesize %v", g, w)
			}
			var golden, wantGolden []string
			for _, m := range goldenLine.FindAllStringSubmatch(got, -1) {
				golden = append(golden, m[1])
			}
			for _, s := range want.Sequences {
				wantGolden = append(wantGolden, s.GoldenMISR)
			}
			if !reflect.DeepEqual(golden, wantGolden) {
				t.Errorf("golden MISRs %v, Synthesize %v", golden, wantGolden)
			}
		})
	}
}

func atoi(t *testing.T, fields []string) []int {
	t.Helper()
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}
