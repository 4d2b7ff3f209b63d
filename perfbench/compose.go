package main

import (
	"fmt"

	"bf4/internal/analysis"
	"bf4/internal/cfg"
	"bf4/internal/core"
	"bf4/internal/driver"
	"bf4/internal/fixes"
	"bf4/internal/infer"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/slice"
	"bf4/internal/smt/rewrite"
	"bf4/internal/ssa"
	"bf4/internal/wp"
)

// row is one Table 1 row of the full loop.
type row struct {
	Bugs       int `json:"bugs"`
	AfterInfer int `json:"after_infer"`
	AfterFixes int `json:"after_fixes"`
	Keys       int `json:"keys"`
	Rounds     int `json:"rounds"`
}

func rowOf(r *driver.Result) row {
	return row{Bugs: r.Bugs, AfterInfer: r.BugsAfterInfer, AfterFixes: r.BugsAfterFixes, Keys: r.KeysAdded, Rounds: r.Rounds}
}

// counts are the per-pass work counts the traced run reads from the
// values public calls return.
type counts struct {
	nodes, bugNodes           int
	sliceKept, sliceTotal     int
	analysisBugs, discharged  int
	checks, reachable, folded int
	cnfVars, cnfClauses       int
	inferCalls                int
	initialBugs, controlled   int
	keys, rounds              int
}

// tracedCompile is core.Compile composed from the layers' public calls,
// in core.CompileCheckedObs's order, with a span around each call.
func tracedCompile(tr *tracer, prog string, parent int, src string, opts ir.Options, useSlicing bool, c *counts) (*core.Pipeline, error) {
	var (
		astProg *ast.Program
		info    *types.Info
		p       *ir.Program
		err     error
	)
	tr.call("p4.parse", prog, parent, func() { astProg, err = parser.Parse(src) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	tr.call("p4.typecheck", prog, parent, func() { info, err = types.Check(astProg) })
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	tr.call("ir.lower", prog, parent, func() { p, err = ir.Build(astProg, info, opts) })
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	c.nodes += len(p.Nodes)
	c.bugNodes += len(p.Bugs)
	pl := &core.Pipeline{Source: src, AST: astProg, Info: info, IR: p, Options: opts, Sliced: useSlicing}
	tr.call("ssa.passify", prog, parent, func() { pl.Pass = ssa.Passify(p) })
	tr.call("wp", prog, parent, func() { pl.FullReach = wp.Compute(p, pl.Pass, nil) })
	tr.call("cfg.dominators", prog, parent, func() { pl.Doms = cfg.NewDominators(p) })
	if useSlicing {
		var keep map[*ir.Node]bool
		tr.call("slice", prog, parent, func() { keep, pl.SliceStats = slice.WRTBugs(p) })
		tr.call("wp", prog, parent, func() { pl.Reach = wp.Compute(p, pl.Pass, keep) })
	} else {
		n := p.NumInstructions()
		pl.SliceStats = slice.Stats{TotalInstructions: n, SliceInstructions: n}
		pl.Reach = pl.FullReach
	}
	c.sliceKept += pl.SliceStats.SliceInstructions
	c.sliceTotal += pl.SliceStats.TotalInstructions
	return pl, nil
}

// tracedVerify is driver.Run composed from the layers' public calls, with
// a span around each call and the solver's counters published to reg.
// It must reproduce driver.Run's row exactly; the benchmark checks that
// against the expected rows on every traced pass.
func tracedVerify(tr *tracer, name string, parent int, src string, dc driver.Config, reg *obs.Registry, c *counts) (row, *core.Pipeline, *core.Report, error) {
	var r row
	if dc.Workers != 0 {
		dc.Infer.Workers = dc.Workers
	}
	dc.Infer.Obs = reg
	top := tr.begin("program", name, parent)
	defer tr.end(top)

	pl, err := tracedCompile(tr, name, top, src, dc.IR, dc.Slicing, c)
	if err != nil {
		return r, nil, nil, err
	}
	if dc.Rewrite {
		pl.IR.F.SetSimplifyProvider(rewrite.Provider(pl.IR.F))
	}
	findBugs := func(pl *core.Pipeline, parent int) *core.Report {
		opts := core.FindOptions{Obs: reg, Incremental: dc.Incremental}
		if dc.Analysis {
			var ar *analysis.Result
			tr.call("analysis", name, parent, func() { ar = analysis.Run(pl.IR, pl.AST) })
			opts.Skip = ar.Discharge
			c.analysisBugs += len(pl.IR.Bugs)
			c.discharged += len(ar.Discharge)
		}
		var rep *core.Report
		tr.call("core.findbugs", name, parent, func() { rep = pl.FindBugsWith(opts) })
		c.checks += rep.Checks
		c.reachable += rep.NumReachable()
		c.folded += rep.FoldDischarged
		c.cnfVars += rep.CNFVars
		c.cnfClauses += rep.CNFClauses
		return rep
	}
	runInfer := func(pl *core.Pipeline, rep *core.Report, parent int) *infer.Result {
		var inf *infer.Result
		tr.call("infer", name, parent, func() { inf = infer.Run(pl, rep, dc.Infer) })
		c.inferCalls += inf.InferCalls
		return inf
	}
	runFixes := func(pl *core.Pipeline, bugs []*core.Bug, parent int) *fixes.Result {
		var fx *fixes.Result
		tr.call("fixes", name, parent, func() { fx = fixes.Run(pl, bugs) })
		return fx
	}

	rep := findBugs(pl, top)
	r.Bugs = rep.NumReachable()
	inf := runInfer(pl, rep, top)
	r.AfterInfer = len(inf.Uncontrolled)
	c.initialBugs += r.Bugs
	c.controlled += r.Bugs - r.AfterInfer
	fx := runFixes(pl, inf.Uncontrolled, top)
	r.Keys = fx.TotalKeys()
	defer func() { c.keys += r.Keys; c.rounds += r.Rounds }()
	if r.Keys == 0 && len(fx.Special) == 0 {
		r.AfterFixes = r.AfterInfer
		return r, pl, rep, nil
	}

	// The rebuild loop, exactly as driver.Run runs it.
	allKeys := mergeKeys(dc.IR.ExtraKeys, fx.Keys)
	egressFix := len(fx.Special) > 0
	const maxRounds = 3
	for round := 0; round < maxRounds; round++ {
		r.Rounds = round + 1
		rb := tr.begin("rebuild", name, top)
		opts2 := dc.IR
		opts2.ExtraKeys = allKeys
		opts2.InitEgressSpecDrop = opts2.InitEgressSpecDrop || egressFix
		pl2, err := tracedCompile(tr, name, rb, src, opts2, dc.Slicing, c)
		if err != nil {
			tr.end(rb)
			return r, nil, nil, fmt.Errorf("rebuild with fixes: %w", err)
		}
		if dc.Rewrite {
			pl2.IR.F.SetSimplifyProvider(rewrite.Provider(pl2.IR.F))
		}
		inf2 := runInfer(pl2, findBugs(pl2, rb), rb)
		r.AfterFixes = len(inf2.Uncontrolled)
		if r.AfterFixes == 0 {
			tr.end(rb)
			break
		}
		fx2 := runFixes(pl2, inf2.Uncontrolled, rb)
		newKeys := 0
		for t, ks := range fx2.Keys {
			have := map[string]bool{}
			for _, k := range allKeys[t] {
				have[k] = true
			}
			for _, k := range ks {
				if !have[k] {
					allKeys[t] = append(allKeys[t], k)
					fx.Keys[t] = append(fx.Keys[t], k)
					newKeys++
				}
			}
		}
		if len(fx2.Special) > 0 && !egressFix {
			egressFix = true
			fx.Special = append(fx.Special, fx2.Special...)
			newKeys++
		}
		tr.end(rb)
		if newKeys == 0 {
			break
		}
		r.Keys = fx.TotalKeys()
	}
	tr.call("driver.rewrite_source", name, top, func() { _, _ = driver.RewriteSource(src, pl.Info, fx) })
	return r, pl, rep, nil
}

// mergeKeys unions two table→keys maps without duplicates, as the
// driver's rebuild loop does.
func mergeKeys(a, b map[string][]string) map[string][]string {
	out := map[string][]string{}
	seen := map[string]map[string]bool{}
	for _, m := range []map[string][]string{a, b} {
		for t, ks := range m {
			if seen[t] == nil {
				seen[t] = map[string]bool{}
			}
			for _, k := range ks {
				if !seen[t][k] {
					seen[t][k] = true
					out[t] = append(out[t], k)
				}
			}
		}
	}
	return out
}
