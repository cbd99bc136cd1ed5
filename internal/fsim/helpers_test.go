package fsim

import (
	"testing"

	"seqbist/internal/bench"
	"seqbist/internal/faults"
	"seqbist/internal/logic"
	"seqbist/internal/netlist"
	"seqbist/internal/sim"
	"seqbist/internal/vectors"
)

func mustParse(t *testing.T, src string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(src, "test")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// simGoodPOs returns the fault-free PO values per time unit.
func simGoodPOs(c *netlist.Circuit, seq vectors.Sequence) [][]logic.Value {
	s := sim.New(c)
	tr := s.Run(seq)
	return tr.POs
}

// batchDetects reports whether seq detects f, from a one-candidate Batch
// pass.
func batchDetects(b *Batch, f faults.Fault, seq vectors.Sequence) bool {
	return b.FirstDetecting(f, []Candidate{Pack(seq, b.c.NumPIs()).Whole()}, 1, 0) == 0
}

// batchDetTime returns the first time unit at which seq, at most
// MaxBatch vectors long, detects f, or Undetected, from one Batch pass:
// lane u simulates the prefix seq[:u+1], so the lowest detecting lane is
// the first detection time.
func batchDetTime(b *Batch, f faults.Fault, seq vectors.Sequence) int {
	p := Pack(seq, b.c.NumPIs())
	cands := make([]Candidate, len(seq))
	for u := range cands {
		cands[u] = p.Slice(0, u+1).Whole()
	}
	return b.FirstDetecting(f, cands, 1, 0)
}
