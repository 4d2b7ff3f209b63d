package prop

import (
	"strings"
	"testing"

	"bf4/internal/p4/ast"
)

// mustParse parses one predicate through the spec-file front end.
func mustParse(t *testing.T, src string) ast.Expr {
	t.Helper()
	props, err := ParseSpecFile("t.props", []byte("@assert"+src))
	if err != nil {
		t.Fatalf("ParseSpecFile(%q): %v", src, err)
	}
	return props[0].Expr
}

// shape renders e with every binary node parenthesized, exposing the
// parse tree.
func shape(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return "(" + shape(e.X) + " " + e.Op.String() + " " + shape(e.Y) + ")"
	case *ast.UnaryExpr:
		return e.Op.String() + shape(e.X)
	}
	return ast.PrintExpr(e)
}

func TestParsePrecedence(t *testing.T) {
	// Predicates are P4 expressions; these pin the shapes the property
	// builtins and -> take in the shared parser.
	cases := []struct{ src, want string }{
		{"(!hit(t) || hit(u))", "(!hit(t) || hit(u))"},
		{"(miss(t))", "miss(t)"},
		{"(hdr.ipv4.isValid() -> hdr.ipv4.ttl > 0)", "(hdr.ipv4.isValid() -> (hdr.ipv4.ttl > 0))"},
		{"(hit(t) -> action_run(t) != drop_)", "(hit(t) -> (action_run(t) != drop_))"},
	}
	for _, c := range cases {
		if got := shape(mustParse(t, c.src)); got != c.want {
			t.Errorf("parse %q = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"(a.b == ",            // unclosed
		"(a.b @ 1)",           // bad token
		"(a.b == 1) trailing", // text after the predicate
		"(16w0xzz == a.b)",    // malformed literal
	}
	for _, src := range cases {
		if _, err := ParseSpecFile("t.props", []byte("\n\n@assert"+src)); err == nil {
			t.Errorf("predicate %q: expected error", src)
		} else if !strings.Contains(err.Error(), "t.props:3:") {
			t.Errorf("predicate %q: error %q lacks a t.props:3:<col> position", src, err)
		}
	}
}

func TestParseSpecFile(t *testing.T) {
	spec := strings.Join([]string{
		"# comment",
		"",
		"@assume(standard_metadata.ingress_port != 9w511)",
		"// another comment",
		"  @assert @after(fwd_0) (standard_metadata.egress_spec != 9w0)",
		"@assert(meta.m.flag != 8w1)",
	}, "\n")
	props, err := ParseSpecFile("x.props", []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 3 {
		t.Fatalf("got %d properties, want 3", len(props))
	}
	if props[0].Kind != Assume || props[0].After != "" {
		t.Errorf("props[0] = %s, want a plain @assume", props[0].Describe())
	}
	if props[1].Kind != Assert || props[1].After != "fwd_0" {
		t.Errorf("props[1] = %s, want @assert @after(fwd_0)", props[1].Describe())
	}
	if props[1].Origin() != "x.props:5:3" {
		t.Errorf("props[1].Origin() = %q, want x.props:5:3 (indented line)", props[1].Origin())
	}
	if props[2].Text != "meta.m.flag != 8w1" {
		t.Errorf("props[2].Text = %q, want the predicate without outer parens", props[2].Text)
	}
	if props[0].FromSource || props[1].FromSource {
		t.Error("spec-file properties must not be marked FromSource")
	}
}

func TestParseSpecFileErrors(t *testing.T) {
	cases := []string{
		"@assert meta.m.flag != 1",       // missing parens
		"@assert(a.b == 1) trailing",     // trailing text
		"@assert(a.b == 1) // note",      // trailing line comment
		"@assert(a.b == 1) /* note */",   // trailing block comment
		"@check(a.b == 1)",               // unknown keyword
		"@assert @after() (a.b == 1)",    // empty @after
		"@assert @after(t u) (a.b == 1)", // @after wants one name
	}
	for _, line := range cases {
		if _, err := ParseSpecFile("x.props", []byte(line)); err == nil {
			t.Errorf("ParseSpecFile(%q): expected error", line)
		}
	}
}

func TestExtractSource(t *testing.T) {
	src := strings.Join([]string{
		"control C() {",
		"    apply {",
		"        // @assume(hdr.ethernet.etherType != 16w0xBEEF)",
		"        x = 1; // plain comment, no annotation",
		"        // @assert @after(t0) (hit(t0) -> action_run(t0) != drop_)",
		"    }",
		"}",
	}, "\n")
	props, err := ExtractSource("prog.p4", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 2 {
		t.Fatalf("got %d properties, want 2", len(props))
	}
	for _, pr := range props {
		if !pr.FromSource {
			t.Errorf("%s: source property not marked FromSource", pr.Origin())
		}
	}
	if props[0].Kind != Assume || props[0].Pos.Line != 3 {
		t.Errorf("props[0] = %s at %s, want @assume on line 3", props[0].Describe(), props[0].Origin())
	}
	if props[1].After != "t0" || props[1].Pos.Line != 5 {
		t.Errorf("props[1] = %s at %s, want @after(t0) on line 5", props[1].Describe(), props[1].Origin())
	}
	// Column points at the '@'.
	if wantCol := strings.Index("        // @assume", "@") + 1; props[0].Pos.Col != wantCol {
		t.Errorf("props[0].Pos.Col = %d, want %d", props[0].Pos.Col, wantCol)
	}

	for _, bad := range []string{
		"// @assert(oops",
		"x = 1; // @assert(a.b == 1) // note",
		"x = 1; // @assert(a.b == 1) /* note */",
	} {
		if _, err := ExtractSource("bad.p4", bad); err == nil {
			t.Errorf("ExtractSource(%q): malformed source annotation must be a hard error, got nil", bad)
		} else if !strings.HasPrefix(err.Error(), "bad.p4:1:") {
			t.Errorf("ExtractSource(%q): error %q lacks a bad.p4:1:<col> position", bad, err)
		}
	}
}

func TestSortProperties(t *testing.T) {
	mk := func(file string, line, col int) *Property {
		return &Property{Pos: Pos{File: file, Line: line, Col: col}}
	}
	props := []*Property{mk("b.props", 1, 1), mk("a.props", 9, 1), mk("a.props", 2, 5), mk("a.props", 2, 1)}
	Sort(props)
	want := []string{"a.props:2:1", "a.props:2:5", "a.props:9:1", "b.props:1:1"}
	for i, w := range want {
		if props[i].Origin() != w {
			t.Errorf("Sort[%d] = %s, want %s", i, props[i].Origin(), w)
		}
	}
}

func TestDataVars(t *testing.T) {
	e := mustParse(t, "(hdr.ipv4.isValid() && hit(t) -> action_run(t) != drop_ && standard_metadata.egress_spec != 9w0 && hdr.ipv4.ttl > meta.m.guard)")
	got := DataVars(e)
	want := []string{"hdr.ipv4.$valid", "hdr.ipv4.ttl", "meta.m.guard", "smeta.egress_spec"}
	if len(got) != len(want) {
		t.Fatalf("DataVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DataVars = %v, want %v", got, want)
		}
	}
}
