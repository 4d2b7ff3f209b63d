package prop_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bf4/internal/ir"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/progs"
	"bf4/internal/prop"
)

var update = flag.Bool("update", false, "rewrite golden property files")

// build lowers src with props spliced in through the instrumentation
// hook, the way the driver does.
func build(t *testing.T, name, src string, props []*prop.Property) (*ir.Program, error) {
	t.Helper()
	prog, err := parser.ParseFile(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("typecheck %s: %v", name, err)
	}
	opts := ir.DefaultOptions()
	opts.Instrument = prop.Instrumenter(props)
	return ir.Build(prog, info, opts)
}

// gather parses the source-comment and spec-file properties of one
// program, in canonical order.
func gather(name, src, specFile, spec string) ([]*prop.Property, error) {
	props, err := prop.ExtractSource(name, src)
	if err != nil {
		return nil, err
	}
	extra, err := prop.ParseSpecFile(specFile, []byte(spec))
	if err != nil {
		return nil, err
	}
	props = append(props, extra...)
	prop.Sort(props)
	return props, nil
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	golden := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// richSpec exercises every operator and builtin the property language
// accepts against GeneratePropSwitch(2, 1); richSource appends
// source-comment properties at a non-1 column.
const richSpec = `@assert(!(hdr.ipv4.ttl < 8w3) || hdr.ipv4.ttl <= 0xff)
  @assert(hdr.ipv4.isValid() -> hdr.ipv4.ttl > 0 && hdr.ipv4.ttl >= 1)
@assert(~hdr.ipv4.protocol != 8w0 || -hdr.ipv4.protocol == 8w0)
@assert((hdr.ipv4.diffserv | 8w1) ^ (hdr.ipv4.diffserv & 0xfe) != hdr.ipv4.diffserv + 1 - 8w2)
@assume @after(fwd_1) (miss(fwd_1) -> action_run(fwd_1) == drop_)
@assert @after(classify_1) (drop_ != action_run(classify_1) -> hit(classify_1) == true)
@assert(hit(classify_0) -> hit(fwd_0) -> hit(fwd_1))
@assert(standard_metadata.egress_spec == smeta.egress_spec)
@assert(meta.m.scratch == 32w0x0 || meta.m.fwd_class != 16w0x800)
@assert(hdr.ethernet.isValid() == hdr.ipv4.isValid() || false)
@assume(!hdr.ipv4.isValid() || hdr.ipv4.version == 4w4)
@assert(8w7 == meta.m.guard && 7 == meta.m.guard)
@assert(-8w1 == 8w255)
`

const richSource = `
        // @assert(hit(fwd_1) || miss(fwd_1))
    // @assume @after(classify_0) (action_run(classify_0) != tag_stage_0)
`

// TestCompiledConditionsGolden pins the smt condition every property
// compiles to at every anchor, for the generated property family and a
// spec covering every accepted expression form.
func TestCompiledConditionsGolden(t *testing.T) {
	type input struct{ name, src, specFile, spec string }
	var inputs []input
	for scale := 1; scale <= 4; scale++ {
		for seed := 1; seed <= 3; seed++ {
			src, spec := progs.GeneratePropSwitch(scale, seed)
			inputs = append(inputs, input{
				fmt.Sprintf("propswitch-%d-%d.p4", scale, seed), src,
				fmt.Sprintf("propswitch-%d-%d.props", scale, seed), spec,
			})
		}
	}
	src, _ := progs.GeneratePropSwitch(2, 1)
	inputs = append(inputs, input{"rich.p4", src + richSource, "rich.props", richSpec})

	var b strings.Builder
	for _, in := range inputs {
		props, err := gather(in.name, in.src, in.specFile, in.spec)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		p, err := build(t, in.name, in.src, props)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		fmt.Fprintf(&b, "== %s + %s\n", in.name, in.specFile)
		for _, n := range p.Nodes {
			if n.Kind != ir.Branch || n.Prop == nil {
				continue
			}
			at := n.Preds[0]
			fmt.Fprintf(&b, "%s %s (%s) at n%d[%s]\n    %s\n", n.Prop.Origin, n.Prop.Kind, n.Prop.Text, at.ID, at.Comment, n.Expr)
		}
	}
	checkGolden(t, "conditions.golden", b.String())
}

// TestPropertyErrorsGolden pins the exact file:line:col: message of
// annotation-level and semantic property errors, from spec files and
// from source comments at columns other than 1.
func TestPropertyErrorsGolden(t *testing.T) {
	src, _ := progs.GeneratePropSwitch(2, 1)
	cases := []struct {
		name   string
		source bool // a source-comment line appended to the program, else a spec line
		line   string
	}{
		{"unknown field", false, "  @assert(hdr.ipv4.nope == 8w1)"},
		{"width mismatch", true, "        // @assert(hdr.ipv4.ttl == 16w1)"},
		{"unknown table", false, "@assert(hit(nosuch_table))"},
		{"unknown action", false, "    @assert @after(fwd_0) (action_run(fwd_0) == set_class)"},
		{"non-bool predicate", false, "@assert(hdr.ipv4.ttl + 8w1)"},
		{"two unsized literals", false, "@assert(1 == 2)"},
		{"unsized literal does not fit", true, "  // @assert(hdr.ipv4.ttl == 300)"},
		{"sized literal does not fit", false, "@assert(hdr.ipv4.ttl == 8w300)"},
		{"unknown root", true, "    // @assume(foo.bar == 1)"},
		{"isValid of non-header", false, "@assert(meta.m.isValid())"},
		{"@after unknown table", false, "@assert @after(nosuch) (true)"},
		{"action compared to literal", false, "@assert(action_run(fwd_0) == 1)"},
		{"action compared to path", false, "@assert(action_run(fwd_0) == forward.x)"},
		{"action in arithmetic", false, "@assert(action_run(fwd_0) + 1 == 2)"},
		{"not of bit-vector", false, "@assert(!hdr.ipv4.ttl)"},
		{"complement of bool", false, "@assert(~hit(fwd_0))"},
		{"and of bit-vector", false, "@assert(hit(fwd_0) && hdr.ipv4.ttl)"},
		{"compare bool with bits", false, "@assert(hdr.ipv4.ttl < hit(fwd_0))"},
		{"bare root", false, "@assert(hdr == 1)"},
		{"unknown keyword", false, "  @check(hdr.ipv4.ttl == 1)"},
		{"missing parens", false, "@assert meta.m.flag != 1"},
		{"empty @after", false, "@assert @after() (true)"},
		{"@after wants one name", false, "@assert @after(t u) (true)"},
		{"@after without parens", false, "@assert @after fwd_0 (true)"},
	}
	var b strings.Builder
	for _, c := range cases {
		progSrc, spec := src, c.line+"\n"
		if c.source {
			progSrc, spec = src+"\n"+c.line+"\n", ""
		}
		props, err := gather("errs.p4", progSrc, "errs.props", spec)
		if err == nil {
			_, err = build(t, "errs.p4", progSrc, props)
		}
		if err == nil {
			t.Errorf("%s: %q accepted, want an error", c.name, c.line)
			continue
		}
		fmt.Fprintf(&b, "%s: %v\n", c.name, err)
	}
	checkGolden(t, "errors.golden", b.String())
}
