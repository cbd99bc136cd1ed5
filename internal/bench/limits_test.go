package bench

import (
	"bufio"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestParseLimitedBytes covers the byte budget: exact fits parse, one
// byte over fails with ErrTooLarge regardless of where the cut lands.
func TestParseLimitedBytes(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"
	if _, err := ParseLimited(strings.NewReader(src), "x", Limits{MaxBytes: int64(len(src))}); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
	for _, max := range []int64{1, 5, int64(len(src)) - 1} {
		_, err := ParseLimited(strings.NewReader(src), "x", Limits{MaxBytes: max})
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("MaxBytes=%d: got %v, want ErrTooLarge", max, err)
		}
	}
}

// TestParseLimitedSignals covers the signal budget: the circuit below
// names 5 distinct signals (a, b, z, g1, g2).
func TestParseLimitedSignals(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(z)\ng1 = AND(a, b)\ng2 = OR(a, b)\nz = XOR(g1, g2)\n"
	if _, err := ParseLimited(strings.NewReader(src), "x", Limits{MaxSignals: 5}); err != nil {
		t.Fatalf("5 signals under a 5-signal budget rejected: %v", err)
	}
	_, err := ParseLimited(strings.NewReader(src), "x", Limits{MaxSignals: 4})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("got %v, want ErrTooLarge", err)
	}
}

// TestParseEmpty: input with no statements is rejected explicitly, both
// truly empty and comment-only.
func TestParseEmpty(t *testing.T) {
	for _, src := range []string{"", "   \n\t\n", "# just\n# comments\n"} {
		_, err := ParseString(src, "x")
		if err == nil || !strings.Contains(err.Error(), "empty netlist") {
			t.Errorf("ParseString(%q): %v, want empty-netlist error", src, err)
		}
	}
}

// TestParseUnlimitedByDefault: Parse and zero Limits impose no bounds.
func TestParseUnlimitedByDefault(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("INPUT(a)\nOUTPUT(z)\n")
	prev := "a"
	for i := 0; i < 2000; i++ {
		cur := "g" + strconv.Itoa(i)
		sb.WriteString(cur + " = NOT(" + prev + ")\n")
		prev = cur
	}
	sb.WriteString("z = BUFF(" + prev + ")\n")
	if _, err := ParseString(sb.String(), "big"); err != nil {
		t.Fatalf("unlimited parse failed: %v", err)
	}
}

// TestParseLineLimit pins the 1 MiB line limit: the scanner's buffer
// grows on demand instead of being preallocated, and must still stop at
// the same length. A comment line one byte short of the limit parses; a
// line that fills it fails with the wrapped bufio.ErrTooLong.
func TestParseLineLimit(t *testing.T) {
	const limit = 1 << 20
	withLine := func(lineLen int) string {
		return "INPUT(a)\n#" + strings.Repeat("x", lineLen-1) + "\nOUTPUT(z)\nz = NOT(a)\n"
	}
	if _, err := ParseString(withLine(limit-1), "x"); err != nil {
		t.Fatalf("%d-byte comment line rejected: %v", limit-1, err)
	}
	_, err := ParseString(withLine(limit), "x")
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("%d-byte line: got %v, want bufio.ErrTooLong", limit, err)
	}
	if want := "bench: " + bufio.ErrTooLong.Error(); err.Error() != want {
		t.Errorf("%d-byte line: error %q, want %q", limit, err, want)
	}
}
