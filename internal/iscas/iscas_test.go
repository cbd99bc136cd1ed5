package iscas

import (
	"testing"

	"seqbist/internal/bench"
	"seqbist/internal/netlist"
)

func TestS27Embedded(t *testing.T) {
	c := S27()
	if c.NumPIs() != 4 || c.NumPOs() != 1 || c.NumDFFs() != 3 || c.NumGates() != 10 {
		t.Errorf("s27 structure: %v", c.Stats())
	}
}

func TestSpecsCoverPaperTable3(t *testing.T) {
	want := []string{"s298", "s344", "s382", "s400", "s526", "s641",
		"s820", "s1196", "s1423", "s1488", "s5378", "s35932"}
	got := TableNames()
	if len(got) != len(want) {
		t.Fatalf("TableNames() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TableNames()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSpecInterfaceSizesMatchISCAS(t *testing.T) {
	// PI/PO/DFF counts of the real ISCAS-89 circuits (POs may be exceeded
	// by synthesis when dangling outputs are exposed, so the spec records
	// the minimum).
	cases := map[string][3]int{
		"s298":  {3, 6, 14},
		"s344":  {9, 11, 15},
		"s382":  {3, 6, 21},
		"s400":  {3, 6, 21},
		"s526":  {3, 6, 21},
		"s641":  {35, 24, 19},
		"s820":  {18, 19, 5},
		"s1196": {14, 14, 18},
		"s1423": {17, 5, 74},
		"s1488": {8, 19, 6},
	}
	for name, want := range cases {
		spec, ok := SpecByName(name)
		if !ok {
			t.Fatalf("missing spec %s", name)
		}
		if spec.PIs != want[0] || spec.POs != want[1] || spec.DFFs != want[2] {
			t.Errorf("%s: spec = %d/%d/%d, want %v", name, spec.PIs, spec.POs, spec.DFFs, want)
		}
	}
}

func TestScaledSpecsDocumented(t *testing.T) {
	for _, name := range []string{"s5378", "s35932"} {
		spec, _ := SpecByName(name)
		if !spec.Scaled() {
			t.Errorf("%s should record scaling from the paper's size", name)
		}
		if spec.PaperGates <= spec.Gates {
			t.Errorf("%s: paper gates %d not larger than synthesized %d",
				name, spec.PaperGates, spec.Gates)
		}
	}
	spec, _ := SpecByName("s298")
	if spec.Scaled() {
		t.Error("s298 should not be marked scaled")
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("s9999"); err == nil {
		t.Error("Load(s9999) succeeded")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec, _ := SpecByName("s298")
	a, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bench.Fingerprint(a) != bench.Fingerprint(b2) {
		t.Error("synthesis is not deterministic")
	}
}

func TestSynthesizeDiffersAcrossSeeds(t *testing.T) {
	spec, _ := SpecByName("s382")
	other := spec
	other.Seed++
	a, _ := Synthesize(spec)
	b2, _ := Synthesize(other)
	if bench.Fingerprint(a) == bench.Fingerprint(b2) {
		t.Error("different seeds produced identical circuits")
	}
}

func TestSynthesizedStructure(t *testing.T) {
	for _, name := range []string{"s298", "s344", "s641", "s820"} {
		spec, _ := SpecByName(name)
		c, err := Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumPIs() != spec.PIs {
			t.Errorf("%s: PIs = %d, want %d", name, c.NumPIs(), spec.PIs)
		}
		if c.NumDFFs() != spec.DFFs {
			t.Errorf("%s: DFFs = %d, want %d", name, c.NumDFFs(), spec.DFFs)
		}
		if c.NumGates() != spec.Gates {
			t.Errorf("%s: gates = %d, want %d", name, c.NumGates(), spec.Gates)
		}
		// POs may exceed the spec slightly (dangling-output absorption).
		if c.NumPOs() < spec.POs {
			t.Errorf("%s: POs = %d, want >= %d", name, c.NumPOs(), spec.POs)
		}
		if c.NumPOs() > spec.POs+spec.Gates/10 {
			t.Errorf("%s: POs = %d, far above spec %d", name, c.NumPOs(), spec.POs)
		}
	}
}

func TestSynthesizedNoDanglingLogic(t *testing.T) {
	for _, name := range []string{"s298", "s400", "s1196"} {
		c := MustLoad(name)
		isPO := make(map[netlist.SignalID]bool)
		for _, po := range c.POs {
			isPO[po] = true
		}
		for id := 0; id < c.NumSignals(); id++ {
			sid := netlist.SignalID(id)
			if len(c.Consumers(sid)) == 0 {
				t.Errorf("%s: signal %s has no consumers", name, c.NameOf(sid))
			}
		}
	}
}

func TestSynthesizedFullyObservable(t *testing.T) {
	// The generator's observability pass guarantees every signal
	// influences a PO (possibly through flip-flops); verify with the
	// independent netlist analysis.
	for _, name := range []string{"s298", "s382", "s820", "s1423"} {
		c := MustLoad(name)
		obs := c.SequentialObservability()
		for id, d := range obs {
			if d < 0 {
				t.Errorf("%s: signal %s unobservable", name, c.NameOf(netlist.SignalID(id)))
			}
		}
		ctrl := c.SequentialControllability()
		for id, d := range ctrl {
			if d < 0 {
				t.Errorf("%s: signal %s uncontrollable", name, c.NameOf(netlist.SignalID(id)))
			}
		}
	}
}

func TestSynthesizedDepthReasonable(t *testing.T) {
	c := MustLoad("s526")
	if c.MaxLevel() < 5 {
		t.Errorf("synthesized s526 depth %d: generator produced flat logic", c.MaxLevel())
	}
	if c.MaxLevel() > c.NumGates() {
		t.Errorf("depth %d exceeds gate count", c.MaxLevel())
	}
}

func TestSynthesizedGateMix(t *testing.T) {
	c := MustLoad("s1423")
	mix := c.Stats().GateMix
	nandNor := mix[netlist.Nand] + mix[netlist.Nor]
	if nandNor < c.NumGates()/4 {
		t.Errorf("NAND+NOR = %d of %d gates; mix unrepresentative", nandNor, c.NumGates())
	}
	if mix[netlist.Xor]+mix[netlist.Xnor] > c.NumGates()/5 {
		t.Errorf("XOR-class gates overrepresented: %d", mix[netlist.Xor]+mix[netlist.Xnor])
	}
}

func TestSynthesizeRejectsBadSpec(t *testing.T) {
	if _, err := Synthesize(Spec{Name: "bad", PIs: 0, POs: 1, Gates: 5}); err == nil {
		t.Error("accepted spec with 0 PIs")
	}
	if _, err := Synthesize(Spec{Name: "bad", PIs: 2, POs: 8, Gates: 4}); err == nil {
		t.Error("accepted spec with fewer gates than POs")
	}
}

func TestLoadAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full benchmark synthesis in -short mode")
	}
	for _, name := range Names() {
		c, err := Load(name)
		if err != nil {
			t.Errorf("Load(%s): %v", name, err)
			continue
		}
		if c.Name != name {
			t.Errorf("Load(%s) returned circuit named %s", name, c.Name)
		}
	}
}

// TestLoadShared checks that Load builds each registry circuit once per
// process: every call, from any goroutine, returns the same pointer,
// while S27 and Synthesize still build private copies.
func TestLoadShared(t *testing.T) {
	for _, name := range Names() {
		got := make([]*netlist.Circuit, 4)
		done := make(chan struct{})
		for i := range got {
			go func(i int) {
				got[i] = MustLoad(name)
				done <- struct{}{}
			}(i)
		}
		for range got {
			<-done
		}
		first := MustLoad(name)
		for i, c := range got {
			if c != first {
				t.Errorf("%s: Load call %d returned a different circuit", name, i)
			}
		}
	}
	if S27() == MustLoad("s27") {
		t.Error("S27 returned the shared circuit")
	}
	spec, _ := SpecByName("s298")
	if c, err := Synthesize(spec); err != nil || c == MustLoad("s298") {
		t.Errorf("Synthesize returned the shared circuit (err %v)", err)
	}
	if _, err := Load("s9999"); err == nil {
		t.Error("Load(s9999) succeeded after the registry was built")
	}
}
