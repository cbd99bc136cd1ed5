package fsim

import (
	"runtime"
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
)

// TestNewAllocatesInProportion guards engine construction cost: the
// pipeline builds many short-lived Engines per job, so New on a small
// circuit must allocate only what the circuit and its fault list need,
// never a block sized in advance. The bound is the average over repeated
// constructions, so one-time setup (the circuit's memoized CSR) does not
// count.
func TestNewAllocatesInProportion(t *testing.T) {
	const bound = 64 << 10
	const reps = 20
	for _, name := range []string{"s27", "s298"} {
		c := iscas.MustLoad(name)
		fl := faults.CollapsedUniverse(c)
		New(c, fl, Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			New(c, fl, Options{})
		}
		runtime.ReadMemStats(&after)
		perNew := (after.TotalAlloc - before.TotalAlloc) / reps
		t.Logf("%s: New allocates %d bytes (%d faults)", name, perNew, len(fl))
		if perNew >= bound {
			t.Errorf("%s: New allocates %d bytes, want < %d", name, perNew, bound)
		}
	}
}
