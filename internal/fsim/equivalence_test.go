package fsim

import (
	"testing"

	"seqbist/internal/faults"
	"seqbist/internal/iscas"
	"seqbist/internal/vectors"
	"seqbist/internal/xrand"
)

// TestEquivalentFaultsDetectIdentically validates the equivalence
// collapsing semantically: structurally equivalent faults must have
// identical detection behaviour on every sequence (same detected flag and
// the same first detection time). This exercises the collapse rules and
// the injection machinery together.
func TestEquivalentFaultsDetectIdentically(t *testing.T) {
	c := iscas.S27()
	u := faults.Universe(c)
	res := faults.Collapse(c)

	// Group universe faults by class.
	classes := make(map[int][]faults.Fault)
	for i, f := range u {
		classes[res.ClassOf[i]] = append(classes[res.ClassOf[i]], f)
	}

	b := NewBatch(c)
	rng := xrand.New(2024)
	seqs := []vectors.Sequence{
		vectors.MustParseSequence("0111 1001 0111 1001 0100 1011 1001 0000 0000 1011"),
	}
	for i := 0; i < 6; i++ {
		seqs = append(seqs, vectors.RandomSequence(rng, c.NumPIs(), 6+rng.Intn(10)))
	}

	multi := 0
	for _, members := range classes {
		if len(members) < 2 {
			continue
		}
		multi++
		for _, seq := range seqs {
			u0 := batchDetTime(b, members[0], seq)
			for _, f := range members[1:] {
				if at := batchDetTime(b, f, seq); at != u0 {
					t.Fatalf("equivalent faults diverge on %v: %s at %d vs %s at %d",
						seq, members[0].Name(c), u0, f.Name(c), at)
				}
			}
		}
	}
	if multi < 5 {
		t.Fatalf("only %d multi-member classes; collapsing suspiciously weak", multi)
	}
}

// TestEquivalentFaultsSynthetic repeats the check on a synthetic circuit
// with a sampled subset of classes.
func TestEquivalentFaultsSynthetic(t *testing.T) {
	c := iscas.MustLoad("s344")
	u := faults.Universe(c)
	res := faults.Collapse(c)
	classes := make(map[int][]faults.Fault)
	for i, f := range u {
		classes[res.ClassOf[i]] = append(classes[res.ClassOf[i]], f)
	}
	b := NewBatch(c)
	seq := vectors.RandomSequence(xrand.New(9), c.NumPIs(), 25)
	checked := 0
	for cls, members := range classes {
		if len(members) < 2 || cls%5 != 0 {
			continue
		}
		checked++
		u0 := batchDetTime(b, members[0], seq)
		for _, f := range members[1:] {
			if batchDetTime(b, f, seq) != u0 {
				t.Fatalf("equivalent faults diverge: %s vs %s", members[0].Name(c), f.Name(c))
			}
		}
	}
	if checked == 0 {
		t.Skip("no classes sampled")
	}
}
