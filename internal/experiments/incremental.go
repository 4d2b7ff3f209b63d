package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"bf4/internal/driver"
	"bf4/internal/obs"
	"bf4/internal/pool"
	"bf4/internal/progs"
)

// Table1JSONRow is one program of BENCH_table1.json: the Table 1 verdict
// columns joined with the deterministic solver counters for that run.
// Every field is reproducible bit-for-bit across machines and worker
// counts — no wall-clock — so CI can compare two artifacts numerically.
type Table1JSONRow struct {
	Program        string `json:"program"`
	LoC            int    `json:"loc"`
	Bugs           int    `json:"bugs"`
	BugsAfterInfer int    `json:"bugs_after_infer"`
	BugsAfterFixes int    `json:"bugs_after_fixes"`
	KeysAdded      int    `json:"keys_added"`
	SolverChecks   int64  `json:"solver_checks"`
	Sat            int64  `json:"sat"`
	Unsat          int64  `json:"unsat"`
	Conflicts      int64  `json:"conflicts"`
	Propagations   int64  `json:"propagations"`
	LearnedClauses int64  `json:"learned_clauses"`
	CNFVars        int64  `json:"cnf_vars"`
	CNFClauses     int64  `json:"cnf_clauses"`
	Discharged     int64  `json:"discharged"`
	InferCalls     int64  `json:"infer_calls"`
}

// Table1JSON marshals the table1 rows and their metric summaries as the
// BENCH_table1.json artifact. Incremental records which solver-core mode
// produced the artifact so tools/benchcmp can label its comparison.
func Table1JSON(rows []Table1Row, ms []Table1Metrics, incremental bool) ([]byte, error) {
	if len(rows) != len(ms) {
		return nil, fmt.Errorf("table1 json: %d rows but %d metric summaries", len(rows), len(ms))
	}
	var totalConflicts, totalProps int64
	out := make([]Table1JSONRow, len(rows))
	for i, r := range rows {
		m := ms[i]
		if m.Program != r.Program {
			return nil, fmt.Errorf("table1 json: row %d is %s but metrics are %s", i, r.Program, m.Program)
		}
		out[i] = Table1JSONRow{
			Program:        r.Program,
			LoC:            r.LoC,
			Bugs:           r.Bugs,
			BugsAfterInfer: r.BugsAfterInfer,
			BugsAfterFixes: r.BugsAfterFixes,
			KeysAdded:      r.KeysAdded,
			SolverChecks:   m.SolverChecks,
			Sat:            m.Sat,
			Unsat:          m.Unsat,
			Conflicts:      m.Conflicts,
			Propagations:   m.Propagations,
			LearnedClauses: m.LearnedCls,
			CNFVars:        m.CNFVars,
			CNFClauses:     m.CNFClauses,
			Discharged:     m.Discharged,
			InferCalls:     m.InferCalls,
		}
		totalConflicts += m.Conflicts
		totalProps += m.Propagations
	}
	return json.MarshalIndent(struct {
		Bench             string          `json:"bench"`
		Incremental       bool            `json:"incremental"`
		Programs          int             `json:"programs"`
		TotalConflicts    int64           `json:"total_conflicts"`
		TotalPropagations int64           `json:"total_propagations"`
		Rows              []Table1JSONRow `json:"rows"`
	}{"table1", incremental, len(out), totalConflicts, totalProps, out}, "", "  ")
}

// IncrementalRow compares one corpus program verified with the
// incremental solver core on vs off. Incremental mode asserts each bug
// check inside a retractable activation scope instead of passing it as
// an assumption, so what may move is solver effort — conflicts,
// propagations and CNF size — while every verdict stays byte-identical.
type IncrementalRow struct {
	Program string `json:"program"`
	// ConflictsOn/Off and PropagationsOn/Off are the whole-run solver
	// effort counters in each mode.
	ConflictsOn     int64 `json:"conflicts_on"`
	ConflictsOff    int64 `json:"conflicts_off"`
	PropagationsOn  int64 `json:"propagations_on"`
	PropagationsOff int64 `json:"propagations_off"`
	// ClausesOn/Off are the initial bug-finding solver's final CNF sizes.
	ClausesOn  int64 `json:"cnf_clauses_on"`
	ClausesOff int64 `json:"cnf_clauses_off"`
	// Identical reports whether the two runs produced byte-identical
	// verification verdicts and inferred annotations. The incremental
	// core is only sound if this is true for every program.
	Identical bool `json:"identical"`
}

// IncrementalAblation runs every corpus program twice — incremental
// solver core on and off — and reports per-program solver-effort deltas
// plus verdict identity.
func IncrementalAblation(switchScale, workers int) ([]IncrementalRow, error) {
	type job struct{ name, src string }
	var jobs []job
	for _, p := range progs.All() {
		src := p.Source
		if p.Name == "switch" {
			if switchScale == 0 {
				continue
			}
			src = progs.GenerateSwitch(switchScale)
		}
		jobs = append(jobs, job{p.Name, src})
	}
	rows, err := pool.MapErr(workers, len(jobs), func(i int) (IncrementalRow, error) {
		name, src := jobs[i].name, jobs[i].src

		runArm := func(incremental bool) (*driver.Result, *obs.Registry, error) {
			cfg := driver.DefaultConfig()
			cfg.Incremental = incremental
			reg := obs.NewRegistry()
			cfg.Obs = reg
			res, err := driver.Run(name, src, cfg)
			return res, reg, err
		}
		resOn, regOn, err := runArm(true)
		if err != nil {
			return IncrementalRow{}, fmt.Errorf("%s (incremental on): %w", name, err)
		}
		resOff, regOff, err := runArm(false)
		if err != nil {
			return IncrementalRow{}, fmt.Errorf("%s (incremental off): %w", name, err)
		}
		return IncrementalRow{
			Program:         name,
			ConflictsOn:     regOn.CounterValue("bf4_solver_conflicts_total"),
			ConflictsOff:    regOff.CounterValue("bf4_solver_conflicts_total"),
			PropagationsOn:  regOn.CounterValue("bf4_solver_propagations_total"),
			PropagationsOff: regOff.CounterValue("bf4_solver_propagations_total"),
			ClausesOn:       int64(resOn.InitialRep.CNFClauses),
			ClausesOff:      int64(resOff.InitialRep.CNFClauses),
			Identical:       verdictFingerprint(resOn) == verdictFingerprint(resOff),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Program < rows[j].Program })
	return rows, nil
}

// RenderIncrementalStable prints the ablation without timing columns;
// every field is deterministic, so CI can diff the output.
func RenderIncrementalStable(rows []IncrementalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %10s %12s %12s %10s %11s %9s\n",
		"Program", "conflicts", "conflicts0", "propagations", "props0", "clauses", "clauses0", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10d %10d %12d %12d %10d %11d %9v\n",
			r.Program, r.ConflictsOn, r.ConflictsOff, r.PropagationsOn, r.PropagationsOff,
			r.ClausesOn, r.ClausesOff, r.Identical)
	}
	return b.String()
}

// IncrementalJSON marshals the ablation for BENCH_incremental.json.
func IncrementalJSON(rows []IncrementalRow) ([]byte, error) {
	reducedConflicts, reducedProps := 0, 0
	identical := true
	var onTotal, offTotal int64
	for _, r := range rows {
		if r.ConflictsOn < r.ConflictsOff {
			reducedConflicts++
		}
		if r.PropagationsOn < r.PropagationsOff {
			reducedProps++
		}
		onTotal += r.ConflictsOn
		offTotal += r.ConflictsOff
		identical = identical && r.Identical
	}
	return json.MarshalIndent(struct {
		Bench             string           `json:"bench"`
		Programs          int              `json:"programs"`
		ReducedConflicts  int              `json:"reduced_conflicts"`
		ReducedProps      int              `json:"reduced_propagations"`
		TotalConflictsOn  int64            `json:"total_conflicts_on"`
		TotalConflictsOff int64            `json:"total_conflicts_off"`
		AllIdentical      bool             `json:"all_identical"`
		Rows              []IncrementalRow `json:"rows"`
	}{"incremental", len(rows), reducedConflicts, reducedProps, onTotal, offTotal, identical, rows}, "", "  ")
}
