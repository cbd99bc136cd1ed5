// Package iscas provides the benchmark circuits used in the paper's
// evaluation (ISCAS-89).
//
// The real s27 netlist is embedded verbatim: it is tiny, published in the
// paper itself (Table 2 reproduces its fault behaviour), and is the worked
// example for Procedures 1 and 2. The remaining eleven circuits of the
// paper's Table 3 are not redistributable in this offline repository, so
// the registry substitutes deterministic synthetic circuits with the same
// primary-input/primary-output/flip-flop counts and approximately the same
// gate count and gate-type mix as the originals (see DESIGN.md §3 for why
// this preserves the experiments' shape). The two largest circuits are
// scaled down to keep full-table reproduction laptop-sized; the Spec
// records both the paper's size and the synthesized size.
package iscas

import (
	"fmt"
	"sort"
	"sync"

	"seqbist/internal/bench"
	"seqbist/internal/netlist"
)

// S27Source is the ISCAS-89 s27 benchmark in .bench format.
const S27Source = `# s27 (ISCAS-89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)

OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)

G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

// S27 returns the embedded real s27 circuit.
func S27() *netlist.Circuit {
	c, err := bench.ParseString(S27Source, "s27")
	if err != nil {
		panic("iscas: embedded s27 failed to parse: " + err.Error())
	}
	return c
}

// Spec describes one benchmark circuit: its interface sizes and, for
// synthetic substitutes, the generation parameters.
type Spec struct {
	Name  string
	PIs   int
	POs   int
	DFFs  int
	Gates int
	// Synthetic is false only for the embedded s27.
	Synthetic bool
	// PaperGates is the gate count of the original ISCAS-89 circuit when
	// the synthetic substitute is scaled down (0 means not scaled).
	PaperGates int
	// PaperDFFs is the original flip-flop count when scaled (0 = not scaled).
	PaperDFFs int
	// Seed drives the deterministic synthesis.
	Seed uint64
}

// Scaled reports whether the synthetic substitute is smaller than the
// original ISCAS-89 circuit.
func (s Spec) Scaled() bool { return s.PaperGates != 0 }

// specs lists the paper's twelve Table 3 circuits plus s27.
//
// PI/PO/DFF counts match the real ISCAS-89 circuits; gate counts are
// approximate (published gate counts vary with how inverters are counted).
// s5378 and s35932 are scaled down as recorded in PaperGates/PaperDFFs.
var specs = []Spec{
	{Name: "s27", PIs: 4, POs: 1, DFFs: 3, Gates: 10, Synthetic: false},
	{Name: "s298", PIs: 3, POs: 6, DFFs: 14, Gates: 119, Synthetic: true, Seed: 298},
	{Name: "s344", PIs: 9, POs: 11, DFFs: 15, Gates: 160, Synthetic: true, Seed: 344},
	{Name: "s382", PIs: 3, POs: 6, DFFs: 21, Gates: 158, Synthetic: true, Seed: 382},
	{Name: "s400", PIs: 3, POs: 6, DFFs: 21, Gates: 162, Synthetic: true, Seed: 400},
	{Name: "s526", PIs: 3, POs: 6, DFFs: 21, Gates: 193, Synthetic: true, Seed: 526},
	{Name: "s641", PIs: 35, POs: 24, DFFs: 19, Gates: 379, Synthetic: true, Seed: 641},
	{Name: "s820", PIs: 18, POs: 19, DFFs: 5, Gates: 289, Synthetic: true, Seed: 820},
	{Name: "s1196", PIs: 14, POs: 14, DFFs: 18, Gates: 529, Synthetic: true, Seed: 1196},
	{Name: "s1423", PIs: 17, POs: 5, DFFs: 74, Gates: 657, Synthetic: true, Seed: 1423},
	{Name: "s1488", PIs: 8, POs: 19, DFFs: 6, Gates: 653, Synthetic: true, Seed: 1488},
	{Name: "s5378", PIs: 35, POs: 49, DFFs: 128, Gates: 1700, Synthetic: true,
		PaperGates: 2779, PaperDFFs: 179, Seed: 5378},
	{Name: "s35932", PIs: 35, POs: 48, DFFs: 224, Gates: 2400, Synthetic: true,
		PaperGates: 16065, PaperDFFs: 1728, Seed: 35932},
}

// Specs returns the benchmark specifications in paper order (s27 first).
func Specs() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// Names returns all benchmark names in paper order.
func Names() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// TableNames returns the names of the twelve circuits in the paper's
// Tables 3-5 (everything except s27).
func TableNames() []string {
	var names []string
	for _, s := range specs {
		if s.Name != "s27" {
			names = append(names, s.Name)
		}
	}
	return names
}

// SpecByName returns the specification for a named benchmark.
func SpecByName(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// shared holds one lazily built circuit per registry name. A Circuit is
// immutable once built (its derived views are sync.Once-guarded), so
// every caller in the process can share one: the registry is a fixed set
// of 13 circuits, about 2 MB with every one built, so the cache is
// bounded without eviction.
var shared = func() map[string]*sharedCircuit {
	m := make(map[string]*sharedCircuit, len(specs))
	for _, s := range specs {
		m[s.Name] = &sharedCircuit{spec: s}
	}
	return m
}()

type sharedCircuit struct {
	spec Spec
	once sync.Once
	c    *netlist.Circuit
	err  error
}

// Load returns the named benchmark circuit: the embedded s27, or the
// deterministic synthetic substitute for the other names. The circuit is
// built on the first Load of its name and the same *Circuit is returned
// to every later caller, so it must not be modified; S27 and Synthesize
// build private copies.
func Load(name string) (*netlist.Circuit, error) {
	e, ok := shared[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return nil, fmt.Errorf("iscas: unknown benchmark %q (known: %v)", name, known)
	}
	e.once.Do(func() {
		if !e.spec.Synthetic {
			e.c = S27()
			return
		}
		e.c, e.err = Synthesize(e.spec)
	})
	return e.c, e.err
}

// MustLoad is Load that panics on error; for tests and examples.
func MustLoad(name string) *netlist.Circuit {
	c, err := Load(name)
	if err != nil {
		panic(err)
	}
	return c
}
