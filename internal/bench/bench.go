// Package bench reads and writes the ISCAS-89 ".bench" netlist format, the
// standard interchange format for the benchmark circuits the paper
// evaluates on.
//
// The format is line oriented:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G5 = DFF(G10)
//	G8 = AND(G14, G6)
//
// Gate keywords: AND, NAND, OR, NOR, XOR, XNOR, NOT (INV), BUF/BUFF, and
// DFF for flip-flops. Parsing is case-insensitive for keywords and
// whitespace-tolerant; signal names are case-sensitive.
package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"seqbist/internal/netlist"
)

// Limits bounds a .bench parse of untrusted input. The zero value means
// unlimited, which is appropriate for files the operator chose; inputs
// arriving over the network (the service's upload path) should use
// UploadLimits or tighter.
type Limits struct {
	// MaxBytes caps the source size in bytes (0 = unlimited). Exceeding
	// it aborts the parse before the excess is read.
	MaxBytes int64
	// MaxSignals caps the number of distinct signals (nets) the netlist
	// may declare or reference (0 = unlimited). The check runs while
	// parsing, so an oversized netlist is rejected without being built.
	MaxSignals int
}

// UploadLimits is the default bound for network-supplied netlists: 1 MiB
// of source and 250k signals, comfortably above the largest ISCAS-89
// circuit (s38584: ~20k signals) while keeping a hostile upload from
// exhausting daemon memory.
var UploadLimits = Limits{MaxBytes: 1 << 20, MaxSignals: 250_000}

// ErrTooLarge reports input that exceeds a parse limit.
var ErrTooLarge = errors.New("bench: input exceeds size limit")

// Parse reads a .bench netlist from r and builds the circuit, with no size
// limits. The name parameter names the resulting circuit (the format
// itself carries no name).
func Parse(r io.Reader, name string) (*netlist.Circuit, error) {
	return ParseLimited(r, name, Limits{})
}

// ParseLimited is Parse with size limits enforced during the scan, for
// input that crosses a trust boundary. Empty input (no statements after
// stripping comments and blanks) is rejected explicitly rather than
// surfacing as a missing-inputs netlist error.
func ParseLimited(r io.Reader, name string, lim Limits) (*netlist.Circuit, error) {
	var lr *limitedReader
	if lim.MaxBytes > 0 {
		lr = &limitedReader{r: r, max: lim.MaxBytes, remaining: lim.MaxBytes}
		r = lr
	}
	b := netlist.NewBuilder(name)
	scanner := bufio.NewScanner(r)
	// Lines may be up to 1 MiB long; the buffer starts small and grows
	// only as far as the longest line needs.
	scanner.Buffer(nil, 1<<20)
	lineNo, stmts := 0, 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := parseLine(b, line); err != nil {
			// A byte-budget overflow truncates the final buffered line;
			// report the limit, not the parse artifact it produced.
			if lr != nil && lr.exceeded {
				return nil, fmt.Errorf("%w (more than %d bytes)", ErrTooLarge, lr.max)
			}
			return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
		}
		stmts++
		if lim.MaxSignals > 0 && b.NumSignals() > lim.MaxSignals {
			return nil, fmt.Errorf("%w: more than %d signals (line %d)",
				ErrTooLarge, lim.MaxSignals, lineNo)
		}
	}
	if err := scanner.Err(); err != nil {
		if errors.Is(err, ErrTooLarge) {
			return nil, err
		}
		return nil, fmt.Errorf("bench: %w", err)
	}
	if stmts == 0 {
		return nil, errors.New("bench: empty netlist (no statements)")
	}
	return b.Build()
}

// ParseString is Parse on a string.
func ParseString(src, name string) (*netlist.Circuit, error) {
	return Parse(strings.NewReader(src), name)
}

// limitedReader reads up to its byte budget and then fails with
// ErrTooLarge (unlike io.LimitReader, which reports a silent EOF that
// would truncate a netlist instead of rejecting it). No byte past the
// budget is ever passed through, so the consumer never sees — and never
// reports an error about — a line the limit cut in half.
type limitedReader struct {
	r              io.Reader
	max, remaining int64
	exceeded       bool
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.remaining <= 0 {
		// Budget exhausted: distinguish exact fit from overflow with a
		// one-byte probe.
		var probe [1]byte
		n, err := l.r.Read(probe[:])
		if n > 0 {
			l.exceeded = true
			return 0, fmt.Errorf("%w (more than %d bytes)", ErrTooLarge, l.max)
		}
		return 0, err
	}
	if int64(len(p)) > l.remaining {
		p = p[:l.remaining]
	}
	n, err := l.r.Read(p)
	l.remaining -= int64(n)
	return n, err
}

func parseLine(b *netlist.Builder, line string) error {
	upper := strings.ToUpper(line)
	switch {
	case strings.HasPrefix(upper, "INPUT"):
		arg, err := parenArg(line[len("INPUT"):])
		if err != nil {
			return err
		}
		b.AddInput(arg)
		return nil
	case strings.HasPrefix(upper, "OUTPUT"):
		arg, err := parenArg(line[len("OUTPUT"):])
		if err != nil {
			return err
		}
		b.AddOutput(arg)
		return nil
	}

	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("expected assignment, got %q", line)
	}
	out := strings.TrimSpace(line[:eq])
	if out == "" {
		return fmt.Errorf("empty output name in %q", line)
	}
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	close := strings.LastIndexByte(rhs, ')')
	if open < 0 || close < open {
		return fmt.Errorf("malformed gate expression %q", rhs)
	}
	keyword := strings.TrimSpace(rhs[:open])
	var ins []string
	for _, f := range strings.Split(rhs[open+1:close], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return fmt.Errorf("empty operand in %q", rhs)
		}
		ins = append(ins, f)
	}
	if strings.EqualFold(keyword, "DFF") {
		if len(ins) != 1 {
			return fmt.Errorf("DFF %s must have exactly one input, got %d", out, len(ins))
		}
		b.AddDFF(out, ins[0])
		return nil
	}
	gt, err := netlist.ParseGateType(keyword)
	if err != nil {
		return err
	}
	b.AddGate(gt, out, ins...)
	return nil
}

// parenArg extracts the argument of "( name )".
func parenArg(s string) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return "", fmt.Errorf("expected parenthesized argument, got %q", s)
	}
	arg := strings.TrimSpace(s[1 : len(s)-1])
	if arg == "" {
		return "", fmt.Errorf("empty argument in %q", s)
	}
	return arg, nil
}

// Write emits c in .bench format: inputs, outputs, flip-flops, then gates
// in topological order. The output round-trips through Parse to an
// equivalent circuit.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d D-type flipflops, %d gates\n",
		c.NumPIs(), c.NumPOs(), c.NumDFFs(), c.NumGates())
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.NameOf(pi))
	}
	fmt.Fprintln(bw)
	for _, po := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.NameOf(po))
	}
	fmt.Fprintln(bw)
	for _, ff := range c.DFFs {
		fmt.Fprintf(bw, "%s = DFF(%s)\n", c.NameOf(ff.Q), c.NameOf(ff.D))
	}
	fmt.Fprintln(bw)
	for _, g := range c.Gates {
		names := make([]string, len(g.In))
		for i, in := range g.In {
			names[i] = c.NameOf(in)
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", c.NameOf(g.Out), g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// Format renders c as a .bench string.
func Format(c *netlist.Circuit) string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = Write(&sb, c)
	return sb.String()
}

// Fingerprint returns an order-insensitive structural description of the
// circuit, useful for equivalence checks in tests: sorted lines of the
// canonical .bench body.
func Fingerprint(c *netlist.Circuit) string {
	var lines []string
	for _, pi := range c.PIs {
		lines = append(lines, "INPUT("+c.NameOf(pi)+")")
	}
	for _, po := range c.POs {
		lines = append(lines, "OUTPUT("+c.NameOf(po)+")")
	}
	for _, ff := range c.DFFs {
		lines = append(lines, c.NameOf(ff.Q)+"=DFF("+c.NameOf(ff.D)+")")
	}
	for _, g := range c.Gates {
		names := make([]string, len(g.In))
		for i, in := range g.In {
			names[i] = c.NameOf(in)
		}
		lines = append(lines, c.NameOf(g.Out)+"="+g.Type.String()+"("+strings.Join(names, ",")+")")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
