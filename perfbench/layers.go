package main

import (
	"runtime"
	"time"

	"bf4/internal/obs"
)

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json lists them; README.md says which end-to-end metric
// and workload each should move. A traced run reports all of them, 0
// for a layer the workload does not reach.
var layerMetrics = []struct{ name, unit string }{
	{"p4.parse_ns", "ns"},
	{"p4.typecheck_ns", "ns"},
	{"ir.lower_ns", "ns"},
	{"ir.nodes", "count"},
	{"ir.bug_nodes", "count"},
	{"ssa.passify_ns", "ns"},
	{"wp.ns", "ns"},
	{"cfg.dominators_ns", "ns"},
	{"slice.ns", "ns"},
	{"slice.kept_ratio", "ratio"},
	{"prop.parse_ns", "ns"},
	{"analysis.ns", "ns"},
	{"analysis.discharge_ratio", "ratio"},
	{"core.findbugs_ns", "ns"},
	{"core.checks", "count"},
	{"core.reachable", "count"},
	{"core.fold_discharged", "count"},
	{"solver.decisions", "count"},
	{"solver.conflicts", "count"},
	{"solver.propagations", "count"},
	{"solver.restarts", "count"},
	{"solver.learned", "count"},
	{"solver.decisions_per_conflict", "ratio"},
	{"solver.search_ns", "ns"},
	{"solver.blast_ns", "ns"},
	{"solver.cnf_vars", "count"},
	{"solver.cnf_clauses", "count"},
	{"solver.inprocessings", "count"},
	{"solver.gate_hits", "count"},
	{"infer.ns", "ns"},
	{"infer.calls", "count"},
	{"infer.controlled_ratio", "ratio"},
	{"fixes.ns", "ns"},
	{"fixes.keys", "count"},
	{"rebuild.ns", "ns"},
	{"rebuild.rounds", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"loop.unattributed_ns", "ns"},
	{"trace.overhead_s", "s"},
	{"spec.parse_ns", "ns"},
	{"shim.compile_ns", "ns"},
	{"shim.apply_ns", "ns"},
	{"shim.accept_us_p50", "us"},
	{"shim.reject_us_p50", "us"},
	{"shim.fast_ratio", "ratio"},
	{"shim.slow_evals", "count"},
}

// spanMetrics maps span names to the per-layer metric that sums their
// durations over a pass. rebuild.ns is inclusive: a rebuild round's
// span contains the layer calls it makes.
var spanMetrics = map[string]string{
	"p4.parse":       "p4.parse_ns",
	"p4.typecheck":   "p4.typecheck_ns",
	"ir.lower":       "ir.lower_ns",
	"ssa.passify":    "ssa.passify_ns",
	"wp":             "wp.ns",
	"cfg.dominators": "cfg.dominators_ns",
	"slice":          "slice.ns",
	"prop.parse":     "prop.parse_ns",
	"analysis":       "analysis.ns",
	"core.findbugs":  "core.findbugs_ns",
	"infer":          "infer.ns",
	"fixes":          "fixes.ns",
	"rebuild":        "rebuild.ns",
}

// countLayers turns one traced pass's counts and solver counters into
// per-layer values.
func countLayers(reg *obs.Registry, c *counts) map[string]float64 {
	ctr := func(name string) float64 { return float64(reg.CounterValue(name)) }
	return map[string]float64{
		"ir.nodes":                      float64(c.nodes),
		"ir.bug_nodes":                  float64(c.bugNodes),
		"slice.kept_ratio":              ratio(c.sliceKept, c.sliceTotal),
		"analysis.discharge_ratio":      ratio(c.discharged, c.analysisBugs),
		"core.checks":                   float64(c.checks),
		"core.reachable":                float64(c.reachable),
		"core.fold_discharged":          float64(c.folded),
		"solver.decisions":              ctr("bf4_solver_decisions_total"),
		"solver.conflicts":              ctr("bf4_solver_conflicts_total"),
		"solver.propagations":           ctr("bf4_solver_propagations_total"),
		"solver.restarts":               ctr("bf4_solver_restarts_total"),
		"solver.learned":                ctr("bf4_solver_learned_clauses_total"),
		"solver.decisions_per_conflict": ctr("bf4_solver_decisions_total") / max(1, ctr("bf4_solver_conflicts_total")),
		"solver.search_ns":              ctr("bf4_solver_search_ns_total"),
		"solver.blast_ns":               ctr("bf4_solver_blast_ns_total"),
		"solver.cnf_vars":               float64(c.cnfVars),
		"solver.cnf_clauses":            float64(c.cnfClauses),
		"solver.inprocessings":          ctr("bf4_solver_inprocessings_total"),
		"solver.gate_hits":              ctr("bf4_solver_gate_hits_total"),
		"infer.calls":                   float64(c.inferCalls),
		"infer.controlled_ratio":        ratio(c.controlled, c.initialBugs),
		"fixes.keys":                    float64(c.keys),
		"rebuild.rounds":                float64(c.rounds),
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedPass is one traced pass: its root span and its count values.
type tracedPass struct {
	root   int
	values map[string]float64
}

// tracedPhase runs traced passes for the rest of the budget, then
// reports each per-layer metric as its median over the traced passes,
// allocation and GC cycles per pass, and the tracing overhead (traced
// minus untraced median pass time).
func (b *bench) tracedPhase(untraced []time.Duration, pass func() tracedPass) {
	var passes []tracedPass
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced := repeat(b.budget-b.budget/2, func() time.Duration {
		p := pass()
		passes = append(passes, p)
		return time.Duration(b.tr.spans[p.root].dur())
	})
	runtime.ReadMemStats(&after)
	b.tr.finish()

	values := map[string][]float64{}
	for _, p := range passes {
		byName, unattributed := b.tr.passLayers(p.root)
		for sp, name := range spanMetrics {
			values[name] = append(values[name], float64(byName[sp]))
		}
		values["loop.unattributed_ns"] = append(values["loop.unattributed_ns"], float64(unattributed))
		for k, v := range p.values {
			values[k] = append(values[k], v)
		}
	}
	for k, vs := range values {
		b.set(k, median(vs), layerUnit(k))
	}
	n := float64(len(passes))
	b.set("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/n, "MB")
	b.set("go.gc_cycles", float64(after.NumGC-before.NumGC)/n, "count")
	u, t := summarize(seconds(untraced)), summarize(seconds(traced))
	note("untraced pass_s", u, "s")
	note("traced pass_s", t, "s")
	b.set("trace.overhead_s", t.Median-u.Median, "s")
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

// fillLayers reports 0 for every per-layer metric the workload did not
// reach.
func (b *bench) fillLayers() {
	for _, m := range layerMetrics {
		if _, ok := b.metrics[m.name]; !ok {
			b.set(m.name, 0, m.unit)
		}
	}
}

// setupLayers reports the setup's annotation layers, each the median
// over the setup reps.
func (b *bench) setupLayers(setup []setupTimes) {
	var parse, compile []float64
	for _, st := range setup {
		parse = append(parse, float64(st.specParse))
		compile = append(compile, float64(st.shimCompile))
	}
	b.set("spec.parse_ns", median(parse), "ns")
	b.set("shim.compile_ns", median(compile), "ns")
}
