// Package driver orchestrates bf4's complete compile-time loop (paper
// Figure 3): find all potential bugs, infer controller annotations,
// propose fixes (missing keys + the egress-spec special case), rebuild
// the program with the fixes applied and re-infer, producing exactly the
// quantities reported in the paper's Table 1 — total bugs, bugs remaining
// after Infer, bugs remaining after fixes, keys added — plus the final
// annotations for the runtime shim and the fixed P4 source.
package driver

import (
	"fmt"
	"strings"
	"time"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/fixes"
	"bf4/internal/infer"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/smt/rewrite"
)

// Config selects pipeline options for a run.
type Config struct {
	IR    ir.Options
	Infer infer.Options
	// Slicing enables bug-reachability slicing (paper default: on).
	Slicing bool
	// Analysis enables the static-analysis pre-pass (internal/analysis):
	// bug checks it proves unreachable are discharged without a solver
	// query, and lint diagnostics are collected on Result.Analysis. It is
	// a pure optimization for the verification verdict (opt out with
	// -analysis=off to cross-check).
	Analysis bool
	// Rewrite enables the term-level rewrite engine (internal/smt/rewrite):
	// every solver created for this run simplifies formulas through the
	// known-bits + interval abstract domain before bit-blasting, and bug
	// conditions that fold to false are discharged without a solver query.
	// Evaluation-preserving, so verdicts are identical either way (opt out
	// with -rewrite=off to cross-check).
	Rewrite bool
	// Incremental asserts each bug condition inside a retractable
	// activation scope on the slice's persistent bug-check solver
	// (solver.CheckIn/Retract) instead of passing it as a Check
	// assumption. Verdicts and inferred annotations are identical either
	// way (opt out with -incremental=off to cross-check).
	Incremental bool
	// Workers bounds the per-instance inference fan-out (cmd/bf4's -j);
	// <= 0 means GOMAXPROCS. It overrides Infer.Workers when set. The
	// results are identical for every value — only wall-clock changes.
	Workers int
	// Obs, when non-nil, collects metrics from every layer of the run
	// (phase timings, per-query solver telemetry, pool utilization);
	// Trace, when non-nil, parents a span per pipeline phase for the
	// --trace-out tree. Both default nil (zero overhead), and every
	// artifact of the run — bug lists, annotations, fixed source — is
	// byte-identical with them on or off.
	Obs   *obs.Registry
	Trace *obs.Span
}

// DefaultConfig matches the paper's configuration.
func DefaultConfig() Config {
	return Config{IR: ir.DefaultOptions(), Infer: infer.DefaultOptions(), Slicing: true, Analysis: true, Rewrite: true, Incremental: true}
}

// Result is one full bf4 run over a program (one Table 1 row).
type Result struct {
	Name string
	LoC  int

	// Bugs is the number of reachable bugs assuming arbitrary entries.
	Bugs int
	// BugsAfterInfer counts bugs still reachable under the inferred
	// single/multi-table annotations.
	BugsAfterInfer int
	// BugsAfterFixes counts bugs still reachable after adding the
	// proposed keys (and applying the egress-spec special fix) and
	// re-running inference — genuine dataplane bugs.
	BugsAfterFixes int
	// KeysAdded and TablesTouched quantify the fix (Table 1 / §5).
	KeysAdded     int
	TablesTouched int
	// Rounds counts fix-point iterations of the rebuild loop (0 when the
	// initial inference already left nothing to fix).
	Rounds int

	Runtime time.Duration

	// Artifacts.
	Initial     *core.Pipeline
	Fixed       *core.Pipeline // nil when no fixes were needed
	InitialRep  *core.Report
	InferResult *infer.Result
	FinalInfer  *infer.Result // inference on the fixed program
	Fixes       *fixes.Result
	FixedSource string // fixed P4 program (empty when no fixes)
	Dataplane   []*core.Bug
	// Analysis is the static-analysis result for the initial program
	// (nil when Config.Analysis is off).
	Analysis *analysis.Result
}

// Run executes the full bf4 loop on a program.
func Run(name, src string, cfg Config) (*Result, error) {
	start := time.Now()
	if cfg.Workers != 0 {
		cfg.Infer.Workers = cfg.Workers
	}
	cfg.Infer.Obs = cfg.Obs
	res := &Result{Name: name, LoC: countLoC(src)}

	compileSp, compileDone := obs.StartPhase(cfg.Obs, cfg.Trace, "compile")
	pl, err := core.CompileObs(src, cfg.IR, cfg.Slicing, cfg.Obs, compileSp)
	compileDone()
	if err != nil {
		return nil, err
	}
	if cfg.Rewrite {
		// Install the rewrite pass on this run's factory so every solver
		// built over it (bug finding, inference, fix rechecks) picks up a
		// private simplifier. The setting travels with the factory, so
		// concurrent runs with different configs stay isolated.
		pl.IR.F.SetSimplifyProvider(rewrite.Provider(pl.IR.F))
	}
	res.Initial = pl
	findBugs := func(pl *core.Pipeline, parent *obs.Span) (*core.Report, *analysis.Result) {
		opts := core.FindOptions{Obs: cfg.Obs, Trace: parent, Incremental: cfg.Incremental}
		if !cfg.Analysis {
			return pl.FindBugsWith(opts), nil
		}
		_, done := obs.StartPhase(cfg.Obs, parent, "analysis")
		ar := analysis.Run(pl.IR, pl.AST)
		done()
		opts.Skip = ar.Discharge
		return pl.FindBugsWith(opts), ar
	}
	rep, ar := findBugs(pl, cfg.Trace)
	res.Analysis = ar
	res.InitialRep = rep
	res.Bugs = rep.NumReachable()

	inferOpts := cfg.Infer
	inferSp, inferDone := obs.StartPhase(cfg.Obs, cfg.Trace, "inference")
	inferOpts.Trace = inferSp
	inf := infer.Run(pl, rep, inferOpts)
	inferDone()
	res.InferResult = inf
	res.BugsAfterInfer = len(inf.Uncontrolled)

	_, fixesDone := obs.StartPhase(cfg.Obs, cfg.Trace, "fixes")
	fx := fixes.Run(pl, inf.Uncontrolled)
	fixesDone()
	res.Fixes = fx
	res.KeysAdded = fx.TotalKeys()
	res.TablesTouched = fx.TablesTouched()

	if res.KeysAdded == 0 && len(fx.Special) == 0 {
		res.BugsAfterFixes = res.BugsAfterInfer
		res.Dataplane = inf.Uncontrolled
		res.FinalInfer = inf
		res.Runtime = time.Since(start)
		return res, nil
	}

	// Rebuild with the fixes applied, re-find, re-infer, and repeat while
	// new fixes keep appearing (Figure 3's loop back from "fixes" to
	// "infer predicates"; the corpus converges in one round, but nothing
	// guarantees that in general).
	allKeys := mergeKeys(cfg.IR.ExtraKeys, fx.Keys)
	egressFix := len(fx.Special) > 0
	const maxRounds = 3
	for round := 0; round < maxRounds; round++ {
		res.Rounds = round + 1
		roundSp, roundDone := obs.StartPhase(cfg.Obs, cfg.Trace, "rebuild")
		opts2 := cfg.IR
		opts2.ExtraKeys = allKeys
		opts2.InitEgressSpecDrop = opts2.InitEgressSpecDrop || egressFix
		pl2, err := core.CompileObs(src, opts2, cfg.Slicing, cfg.Obs, roundSp)
		if err != nil {
			roundDone()
			return nil, fmt.Errorf("rebuild with fixes: %w", err)
		}
		if cfg.Rewrite {
			// The rebuild creates a fresh factory; re-install the pass.
			pl2.IR.F.SetSimplifyProvider(rewrite.Provider(pl2.IR.F))
		}
		res.Fixed = pl2
		rep2, _ := findBugs(pl2, roundSp)
		inferOpts2 := cfg.Infer
		inferOpts2.Trace = roundSp
		inf2 := infer.Run(pl2, rep2, inferOpts2)
		res.FinalInfer = inf2
		res.BugsAfterFixes = len(inf2.Uncontrolled)
		res.Dataplane = inf2.Uncontrolled
		if res.BugsAfterFixes == 0 {
			roundDone()
			break
		}
		fx2 := fixes.Run(pl2, inf2.Uncontrolled)
		newKeys := 0
		for t, ks := range fx2.Keys {
			have := map[string]bool{}
			for _, k := range allKeys[t] {
				have[k] = true
			}
			for _, k := range ks {
				if !have[k] {
					allKeys[t] = append(allKeys[t], k)
					res.Fixes.Keys[t] = append(res.Fixes.Keys[t], k)
					newKeys++
				}
			}
		}
		if len(fx2.Special) > 0 && !egressFix {
			egressFix = true
			res.Fixes.Special = append(res.Fixes.Special, fx2.Special...)
			newKeys++
		}
		roundDone()
		if newKeys == 0 {
			break // only genuine dataplane bugs remain
		}
		res.KeysAdded = res.Fixes.TotalKeys()
		res.TablesTouched = res.Fixes.TablesTouched()
	}

	if fixedSrc, err := RewriteSource(src, pl.Info, res.Fixes); err == nil {
		res.FixedSource = fixedSrc
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// mergeKeys unions two table→keys maps, deduplicating: a key present in
// both ExtraKeys and a fix round (or proposed twice across rounds) must
// not be added to the table twice.
func mergeKeys(a, b map[string][]string) map[string][]string {
	out := map[string][]string{}
	seen := map[string]map[string]bool{}
	add := func(t, k string) {
		if seen[t] == nil {
			seen[t] = map[string]bool{}
		}
		if !seen[t][k] {
			seen[t][k] = true
			out[t] = append(out[t], k)
		}
	}
	for t, ks := range a {
		for _, k := range ks {
			add(t, k)
		}
	}
	for t, ks := range b {
		for _, k := range ks {
			add(t, k)
		}
	}
	return out
}

func countLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t != "" && !strings.HasPrefix(t, "//") {
			n++
		}
	}
	return n
}

// RewriteSource produces the fixed P4 program: the proposed keys are
// appended to their tables (translated from canonical paths back to each
// control's parameter names) and re-printed.
func RewriteSource(src string, info *types.Info, fx *fixes.Result) (string, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	info2, err := types.Check(prog)
	if err != nil {
		return "", err
	}
	for _, d := range prog.Decls {
		ctl, ok := d.(*ast.ControlDecl)
		if !ok {
			continue
		}
		inverse := roleInverse(info2, ctl)
		for _, l := range ctl.Locals {
			td, ok := l.(*ast.TableDecl)
			if !ok {
				continue
			}
			for _, keyPath := range fx.Keys[td.Name] {
				expr, err := keyExprFor(keyPath, inverse)
				if err != nil {
					continue
				}
				td.Keys = append(td.Keys, &ast.TableKey{Expr: expr, MatchKind: "exact"})
			}
		}
	}
	out := ast.Print(prog)
	if len(fx.Special) > 0 {
		out = "// bf4: " + strings.Join(fx.Special, "\n// bf4: ") + "\n" + out
	}
	return out, nil
}

// roleInverse maps canonical prefixes (hdr/meta/smeta) back to the
// control's parameter names.
func roleInverse(info *types.Info, ctl *ast.ControlDecl) map[string]string {
	inv := map[string]string{}
	var headersStruct, metaStruct *ast.StructDecl
	if info.Pipeline.Parser != nil {
		for _, p := range info.Pipeline.Parser.Params {
			if st, ok := info.ResolveType(p.Type).(*types.StructT); ok {
				switch {
				case st.Decl.Name == "standard_metadata_t":
				case p.Dir == "out":
					headersStruct = st.Decl
				case metaStruct == nil:
					metaStruct = st.Decl
				}
			}
		}
	}
	for _, p := range ctl.Params {
		st, ok := info.ResolveType(p.Type).(*types.StructT)
		if !ok {
			continue
		}
		switch {
		case st.Decl.Name == "standard_metadata_t":
			inv["smeta"] = p.Name
		case st.Decl == headersStruct:
			inv["hdr"] = p.Name
		case st.Decl == metaStruct:
			inv["meta"] = p.Name
		default:
			inv[p.Name] = p.Name
		}
	}
	return inv
}

// keyExprFor parses a canonical key path and rewrites its root to the
// control's parameter name.
func keyExprFor(path string, inverse map[string]string) (ast.Expr, error) {
	e, err := parser.ParseExpr(path)
	if err != nil {
		return nil, err
	}
	rewriteRoot(e, inverse)
	return e, nil
}

func rewriteRoot(e ast.Expr, inverse map[string]string) {
	switch x := e.(type) {
	case *ast.Ident:
		if repl, ok := inverse[x.Name]; ok {
			x.Name = repl
		}
	case *ast.Member:
		rewriteRoot(x.X, inverse)
	case *ast.IndexExpr:
		rewriteRoot(x.X, inverse)
	case *ast.CallExpr:
		rewriteRoot(x.Fun, inverse)
	}
}

// Summary renders a Table 1-style row.
func (r *Result) Summary() string {
	return fmt.Sprintf("%-24s LoC=%-5d bugs=%-3d afterInfer=%-3d afterFixes=%-3d keys=%-3d time=%s",
		r.Name, r.LoC, r.Bugs, r.BugsAfterInfer, r.BugsAfterFixes, r.KeysAdded,
		r.Runtime.Round(time.Millisecond))
}
