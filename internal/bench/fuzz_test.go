package bench_test

import (
	"bytes"
	"testing"

	"seqbist/internal/bench"
	"seqbist/internal/iscas"
)

// FuzzParseLimited feeds arbitrary bytes to ParseLimited under small
// limits — the path every uploaded netlist takes. It must never panic; a
// circuit it accepts must stay within the byte and signal budgets; and
// Format of an accepted circuit must parse back to the same Fingerprint.
func FuzzParseLimited(f *testing.F) {
	f.Add([]byte(iscas.S27Source))
	for _, name := range []string{"s298", "s344"} {
		f.Add([]byte(bench.Format(iscas.MustLoad(name))))
	}
	for _, src := range []string{
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
		"input(a)\noutput(q)\nq = dff(d)\nd = nand(a, q)\n",
		"INPUT(a)\nOUTPUT(z)\nz = AND(a, z)\n",
		"INPUT(a)\nOUTPUT(z)\nz = DFF(a, a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = AND(a, )\n",
		"INPUT()\n",
		"INPUT a\n",
		"= NOT(a)\n",
		"z = NOT a\n",
		"z = NOT)a(\n",
		"# only a comment\n\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n",
		"INPUT(a b)\nOUTPUT(z)\nz = NOT(a b) # trailing\n",
		"",
	} {
		f.Add([]byte(src))
	}

	lim := bench.Limits{MaxBytes: 4 << 10, MaxSignals: 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := bench.ParseLimited(bytes.NewReader(data), "fuzz", lim)
		if err != nil {
			return
		}
		if int64(len(data)) > lim.MaxBytes {
			t.Fatalf("accepted %d bytes, budget %d", len(data), lim.MaxBytes)
		}
		if n := c.NumSignals(); n > lim.MaxSignals {
			t.Fatalf("accepted a circuit with %d signals, budget %d", n, lim.MaxSignals)
		}
		src := bench.Format(c)
		back, err := bench.ParseString(src, "fuzz")
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, src)
		}
		if got, want := bench.Fingerprint(back), bench.Fingerprint(c); got != want {
			t.Fatalf("round trip changed the circuit:\n%s\nvs\n%s", got, want)
		}
	})
}
