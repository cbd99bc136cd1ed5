package fsim

import (
	"reflect"
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// TestParallelMatchesSerialRun is the differential check behind the
// sharded scheduler's contract: for random circuits, sequences, and
// worker counts, the cone-sharded Run must be bit-for-bit identical to
// the serial path — same Detected flags, same first-detection times.
func TestParallelMatchesSerialRun(t *testing.T) {
	circuits := []string{"s27", "s298", "s344", "s382"}
	workerCounts := []int{2, 3, 4, 8}
	for _, name := range circuits {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		for seed := uint64(1); seed <= 3; seed++ {
			seq := vectors.RandomSequence(xrand.New(seed), c.NumPIs(), 150)
			serial := New(c, fl, Options{Workers: 1}).Run(seq)
			for _, w := range workerCounts {
				par := New(c, fl, Options{Workers: w}).Run(seq)
				if !reflect.DeepEqual(serial.Detected, par.Detected) {
					t.Fatalf("%s seed=%d workers=%d: Detected differs from serial", name, seed, w)
				}
				if !reflect.DeepEqual(serial.DetTime, par.DetTime) {
					t.Fatalf("%s seed=%d workers=%d: DetTime differs from serial", name, seed, w)
				}
				if serial.NumDetected != par.NumDetected {
					t.Fatalf("%s seed=%d workers=%d: NumDetected %d != %d",
						name, seed, w, serial.NumDetected, par.NumDetected)
				}
			}
		}
	}
}

// TestParallelExtendOrderAndState interleaves Extend calls on a serial
// and a parallel Engine and checks that every call reports the same
// newly-detected faults in the same order, and that the carried machine
// state stays in lockstep (witnessed by identical detections afterwards).
func TestParallelExtendOrderAndState(t *testing.T) {
	c := iscas.MustLoad("s298")
	fl := faults.CollapsedUniverse(c)
	seq := vectors.RandomSequence(xrand.New(7), c.NumPIs(), 120)

	serial := New(c, fl, Options{})
	par := New(c, fl, Options{Workers: 4})

	for start := 0; start < seq.Len(); start += 17 {
		end := start + 17
		if end > seq.Len() {
			end = seq.Len()
		}
		chunk := seq[start:end]
		ns := serial.Extend(chunk)
		np := par.Extend(chunk)
		if !reflect.DeepEqual(ns, np) {
			t.Fatalf("chunk [%d,%d): newly detected differ: serial %v, parallel %v",
				start, end, ns, np)
		}
		if serial.Now() != par.Now() {
			t.Fatalf("chunk [%d,%d): Now %d != %d", start, end, serial.Now(), par.Now())
		}
	}
	rs, rp := serial.Result(), par.Result()
	if !reflect.DeepEqual(rs, rp) {
		t.Fatal("final results differ after interleaved Extend calls")
	}
}

// TestParallelEvaluateMatchesSerial checks the non-committing Evaluate
// path: identical newly-detected lists (order included) and divergence
// counts, and no state leakage into subsequent calls.
func TestParallelEvaluateMatchesSerial(t *testing.T) {
	c := iscas.MustLoad("s344")
	fl := faults.CollapsedUniverse(c)
	warmup := vectors.RandomSequence(xrand.New(3), c.NumPIs(), 40)

	serial := New(c, fl, Options{})
	par := New(c, fl, Options{Workers: 4})
	serial.Extend(warmup)
	par.Extend(warmup)

	for seed := uint64(10); seed < 16; seed++ {
		cand := vectors.RandomSequence(xrand.New(seed), c.NumPIs(), 25)
		ns, ds := serial.Evaluate(cand)
		np, dp := par.Evaluate(cand)
		if !reflect.DeepEqual(ns, np) {
			t.Fatalf("seed=%d: newly differ: serial %v, parallel %v", seed, ns, np)
		}
		if ds != dp {
			t.Fatalf("seed=%d: divergence %d != %d", seed, ds, dp)
		}
	}
	if !reflect.DeepEqual(serial.Result(), par.Result()) {
		t.Fatal("Evaluate committed state: results diverged")
	}
}

// TestParallelismClamp checks the configuration edge cases: nonpositive
// worker counts normalize to the serial path.
func TestParallelismClamp(t *testing.T) {
	c := iscas.MustLoad("s27")
	fl := faults.CollapsedUniverse(c)
	if got := New(c, fl, Options{Workers: -3}).opts.Workers; got != 1 {
		t.Fatalf("normalized Workers for -3 = %d, want 1", got)
	}
	seq := vectors.RandomSequence(xrand.New(1), c.NumPIs(), 30)
	want := New(c, fl, Options{Workers: 1}).Run(seq)
	got := New(c, fl, Options{}).Run(seq)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("Run with zero-value Options differs from serial")
	}
}
