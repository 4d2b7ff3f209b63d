package prop

import (
	"sort"

	"bf4/internal/p4/ast"
)

// DataVars returns the resolved program-variable names a property
// expression reads — field paths plus header validity bits — sorted and
// deduplicated. Table state (hit/miss/action_run) is excluded: those are
// per-instance control variables, not packet data. Used by the driver to
// pick which fields of a replayed witness to show.
func DataVars(e ast.Expr) []string {
	seen := map[string]bool{}
	collectVars(e, seen)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func collectVars(e ast.Expr, seen map[string]bool) {
	switch e := e.(type) {
	case *ast.Ident, *ast.Member:
		if name, ok := varName(pathParts(e)); ok {
			seen[name] = true
		}
	case *ast.CallExpr:
		if hdr := validityOf(e); hdr != nil {
			if name, ok := varName(pathParts(hdr)); ok {
				seen[name+".$valid"] = true
			}
		}
	case *ast.UnaryExpr:
		collectVars(e.X, seen)
	case *ast.BinaryExpr:
		// In an action comparison the other operand is an action name,
		// not a field.
		if call, _ := actionCompare(e); call != nil {
			return
		}
		collectVars(e.X, seen)
		collectVars(e.Y, seen)
	}
}
