package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"seqbist/internal/service"
)

// digest content-addresses a job's deterministic output: the JSON body of
// its Result with the one nondeterministic field, elapsed_ms, zeroed.
func digest(r *service.Result) string {
	cp := *r
	cp.ElapsedMS = 0
	enc, err := json.Marshal(&cp)
	if err != nil {
		panic(err) // a Result is plain data; marshaling cannot fail
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// vmHWM reads a process's peak resident set size from /proc, in MiB.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// span is one timed call at a layer boundary. Spans of one job share Job;
// Parent is the index of the enclosing span (-1 for a root).
type span struct {
	Job    string             `json:"job"`
	Name   string             `json:"name"`
	Parent int                `json:"parent"`
	Start  time.Duration      `json:"start_ns"` // since the trace began
	End    time.Duration      `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(job, name string, parent int) int {
	t.spans = append(t.spans, span{Job: job, Name: name, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span i, attaching counts, and returns its duration.
func (t *tracer) end(i int, counts map[string]float64) time.Duration {
	s := &t.spans[i]
	s.End = time.Since(t.t0)
	s.Counts = counts
	return s.End - s.Start
}

// at records a span whose times were taken elsewhere (client timings and
// server timestamps) and returns its index.
func (t *tracer) at(job, name string, parent int, start, end time.Time, counts map[string]float64) int {
	t.spans = append(t.spans, span{Job: job, Name: name, Parent: parent,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Counts: counts})
	return len(t.spans) - 1
}

// writeTrace writes a run's spans under .bench_build/trace/.
func writeTrace(root, workload string, seed uint64, spans []span) error {
	dir := filepath.Join(root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	enc, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), enc, 0o644)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run prints: the metrics of its mode plus the outcome
// counts the result line carries.
type report struct {
	Metrics   map[string]metric
	Attempted int
	Failed    int
	Notes     []string // human-readable lines printed before the result
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.note("FAILED: "+format, args...)
}
