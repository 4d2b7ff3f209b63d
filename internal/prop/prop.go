// Package prop implements bf4's user-facing property DSL: boolean
// @assert/@assume predicates over header fields, validity bits, standard
// metadata and table hit/action state, written as P4 source comments or
// in .props spec files. A predicate is a P4 expression parsed by
// internal/p4/parser (plus `->`, for properties only). One semantic
// pass typechecks it against the lowered program and binds its names
// and builtins (isValid(), hit, miss, action_run); the compiler then
// splices it in as guarded BugAssertFail nodes through
// ir.Options.Instrument, after which the whole pipeline (pre-discharge,
// wp, solver, Infer, Fixes, the runtime shim) treats user properties
// exactly like built-in checks.
package prop

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/lexer"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/token"
)

// Pos is a source position inside a property's origin (a P4 file or a
// .props spec file). Line and Col are 1-based.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Kind discriminates the two property flavors.
type Kind int

const (
	// Assert properties must hold on every execution reaching their
	// anchor; violations become BugAssertFail nodes the solver confirms
	// with a packet witness or refutes.
	Assert Kind = iota
	// Assume properties constrain the input space: executions violating
	// them are routed to an unreachable terminal and excluded from every
	// downstream check.
	Assume
)

func (k Kind) String() string {
	if k == Assume {
		return "assume"
	}
	return "assert"
}

// Property is one parsed @assert/@assume annotation.
type Property struct {
	Kind Kind
	// Expr is the predicate, a P4 expression whose positions are those of
	// the declaration site.
	Expr ast.Expr
	// After anchors the property right behind every apply of the named
	// table (`@assert @after(t) (...)`); empty means the default anchor
	// (end of ingress for asserts, ingress entry for assumes).
	After string
	// Pos is the declaration site (P4 source comment or .props line).
	Pos Pos
	// Text is the predicate as written, for diagnostics.
	Text string
	// FromSource marks properties extracted from P4 source comments;
	// their Pos is a valid position in the analyzed program file.
	FromSource bool
}

// Origin renders the declaration site as file:line:col.
func (p *Property) Origin() string { return p.Pos.String() }

// Describe renders the property header for messages, e.g.
// "@assert @after(fwd) (x == 1)".
func (p *Property) Describe() string {
	var b strings.Builder
	b.WriteString("@")
	b.WriteString(p.Kind.String())
	if p.After != "" {
		fmt.Fprintf(&b, " @after(%s)", p.After)
	}
	fmt.Fprintf(&b, "(%s)", p.Text)
	return b.String()
}

// Sort orders properties by declaration site (file, line, col) — the
// canonical processing order, independent of how the inputs were
// gathered (source scan vs spec files).
func Sort(props []*Property) {
	slices.SortStableFunc(props, func(a, b *Property) int {
		return cmp.Or(cmp.Compare(a.Pos.File, b.Pos.File), cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Col, b.Pos.Col))
	})
}

// parseAnnotation parses one "@assert.../@assume..." annotation whose
// '@' sits at pos. Grammar:
//
//	'@assert' | '@assume'  [ '@after' '(' table ')' ]  '(' predicate ')'
//
// The parenthesized predicate must close the annotation: trailing text,
// a comment included, is an error, so a stray comment after a property
// is caught rather than silently ignored.
func parseAnnotation(text string, pos Pos) (*Property, error) {
	pr := &Property{Pos: pos}
	rest := text
	// errorf reports at the start of rest.
	errorf := func(format string, args ...interface{}) error {
		col := pos.Col + len(text) - len(rest)
		return fmt.Errorf("%s:%d:%d: %s", pos.File, pos.Line, col, fmt.Sprintf(format, args...))
	}
	var ok bool
	if rest, ok = strings.CutPrefix(text, "@assert"); ok {
		pr.Kind = Assert
	} else if rest, ok = strings.CutPrefix(text, "@assume"); ok {
		pr.Kind = Assume
	} else {
		return nil, fmt.Errorf("%s: expected @assert or @assume", pos)
	}
	rest = strings.TrimLeft(rest, " \t")
	if after, ok := strings.CutPrefix(rest, "@after"); ok {
		rest = strings.TrimLeft(after, " \t")
		if rest, ok = strings.CutPrefix(rest, "("); !ok {
			return nil, errorf("expected '(' after @after")
		}
		rest = strings.TrimLeft(rest, " \t")
		end := strings.IndexByte(rest, ')')
		if end < 0 {
			return nil, errorf("unclosed @after(...)")
		}
		pr.After = strings.TrimSpace(rest[:end])
		if pr.After == "" || strings.ContainsAny(pr.After, " \t") {
			return nil, errorf("@after wants a single table name")
		}
		rest = strings.TrimLeft(rest[end+1:], " \t")
	}
	if !strings.HasPrefix(rest, "(") {
		return nil, errorf("expected parenthesized predicate")
	}
	// Pad the predicate so the parser's line:col positions are the
	// declaration site's.
	pad := strings.Repeat("\n", pos.Line-1) + strings.Repeat(" ", pos.Col+len(text)-len(rest)-1)
	pred := rest
	if end := closingParen(rest); end >= 0 {
		pred, rest = rest[:end], strings.TrimLeft(rest[end:], " \t")
		if rest != "" {
			return nil, errorf("unexpected %q after property expression", strings.TrimSpace(rest))
		}
	}
	expr, err := parser.ParseExpr(pad + pred)
	if err != nil {
		return nil, parser.PrefixFile(pos.File, err)
	}
	pr.Expr = expr
	pr.Text = strings.TrimSpace(pred[1 : len(pred)-1])
	return pr, nil
}

// closingParen returns the byte offset just past the ')' that closes the
// '(' starting text, or -1 if it never closes. It scans with the P4
// lexer, so parentheses inside comments do not count and a trailing
// comment is left over as text. text is one line, so a token's column
// is its offset plus one.
func closingParen(text string) int {
	lx := lexer.New(text)
	depth := 0
	for t := lx.Next(); t.Kind != token.EOF; t = lx.Next() {
		switch t.Kind {
		case token.LPAREN:
			depth++
		case token.RPAREN:
			if depth--; depth == 0 {
				return t.Pos.Col
			}
		}
	}
	return -1
}

// ExtractSource scans P4 source for property annotations in line
// comments (`// @assert(...)`, `// @assume(...)`), returning them with
// their true file positions. One property per comment; a malformed
// annotation is a hard error (silently ignoring a typo'd property would
// un-verify it).
func ExtractSource(file, src string) ([]*Property, error) {
	var out []*Property
	for i, line := range strings.Split(src, "\n") {
		line = strings.TrimRight(line, "\r")
		ci := strings.Index(line, "//")
		if ci < 0 {
			continue
		}
		comment := line[ci+2:]
		ai := strings.Index(comment, "@assert")
		if j := strings.Index(comment, "@assume"); j >= 0 && (ai < 0 || j < ai) {
			ai = j
		}
		if ai < 0 {
			continue
		}
		col := ci + 2 + ai + 1 // 1-based column of '@'
		pr, err := parseAnnotation(comment[ai:], Pos{File: file, Line: i + 1, Col: col})
		if err != nil {
			return nil, err
		}
		pr.FromSource = true
		out = append(out, pr)
	}
	return out, nil
}

// ParseSpecFile parses a standalone .props spec file: one property per
// line, '#' or '//' line comments, blank lines ignored.
func ParseSpecFile(file string, data []byte) ([]*Property, error) {
	var out []*Property
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		trimmed := strings.TrimLeft(line, " \t")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") || strings.HasPrefix(trimmed, "//") {
			continue
		}
		col := len(line) - len(trimmed) + 1
		pr, err := parseAnnotation(trimmed, Pos{File: file, Line: i + 1, Col: col})
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}
