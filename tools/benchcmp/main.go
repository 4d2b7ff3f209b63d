// Command benchcmp compares two bench artifacts, dispatching on their
// "bench" field.
//
// table1 mode compares two BENCH_table1.json artifacts produced by
// `bf4-bench -run table1 -json` — conventionally incremental solver core
// ON first, OFF second — and enforces the bench trajectory:
//
//	benchcmp [-max-conflict-ratio 1.05] on.json off.json
//
// It prints a per-program table of conflict and propagation deltas, then
// exits non-zero if
//
//   - the two artifacts disagree on any verdict column (program set,
//     bug counts, keys) — incremental mode must never change verdicts, or
//   - total conflicts in the ON artifact exceed the OFF artifact by more
//     than the allowed ratio — the incremental core must not regress
//     total solver effort.
//
// It also reports on how many programs conflicts and propagations went
// down; the CI log keeps that trajectory visible over time.
//
// shimscale mode compares two BENCH_shimscale.json artifacts produced by
// `bf4-bench -run shimscale -fastpath both -json` — fast path ON first,
// OFF second:
//
//	benchcmp [-min-speedup 2.0] BENCH_shimscale.json BENCH_shimscale_off.json
//
// It fails if the two tiers disagree on any decision count (the fast
// path must never change verdicts), if the ON artifact took any
// slow-path evaluations the OFF artifact cannot account for, or if the
// fast path's update throughput is below -min-speedup times the slow
// path's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

type benchRow struct {
	Program        string `json:"program"`
	LoC            int    `json:"loc"`
	Bugs           int    `json:"bugs"`
	BugsAfterInfer int    `json:"bugs_after_infer"`
	BugsAfterFixes int    `json:"bugs_after_fixes"`
	KeysAdded      int    `json:"keys_added"`
	Conflicts      int64  `json:"conflicts"`
	Propagations   int64  `json:"propagations"`
	CNFVars        int64  `json:"cnf_vars"`
	CNFClauses     int64  `json:"cnf_clauses"`
	Discharged     int64  `json:"discharged"`
}

type benchFile struct {
	Bench             string     `json:"bench"`
	Incremental       bool       `json:"incremental"`
	Programs          int        `json:"programs"`
	TotalConflicts    int64      `json:"total_conflicts"`
	TotalPropagations int64      `json:"total_propagations"`
	Rows              []benchRow `json:"rows"`
}

// shimscaleFile mirrors experiments.ShimScaleResult.
type shimscaleFile struct {
	Bench         string  `json:"bench"`
	Fastpath      bool    `json:"fastpath"`
	Scale         int     `json:"scale"`
	Updates       int64   `json:"updates"`
	Accepted      int64   `json:"accepted"`
	Rejected      int64   `json:"rejected"`
	FastHits      int64   `json:"fast_hits"`
	SlowHits      int64   `json:"slow_hits"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

// readJSON decodes the artifact at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadTable1(path string) (*benchFile, error) {
	var f benchFile
	if err := readJSON(path, &f); err != nil {
		return nil, err
	}
	if f.Bench != "table1" {
		return nil, fmt.Errorf("%s: bench is %q, want table1", path, f.Bench)
	}
	return &f, nil
}

// loadShimscale reads a shimscale artifact and checks that it is the
// fastpath=wantFast arm.
func loadShimscale(path string, wantFast bool) (*shimscaleFile, error) {
	var f shimscaleFile
	if err := readJSON(path, &f); err != nil {
		return nil, err
	}
	if f.Bench != "shimscale" {
		return nil, fmt.Errorf("%s: bench is %q, want shimscale", path, f.Bench)
	}
	if f.Fastpath != wantFast {
		return nil, fmt.Errorf("%s: fastpath=%v artifact in the %v position", path, f.Fastpath, wantFast)
	}
	return &f, nil
}

// benchKind reads just the artifact's bench discriminator.
func benchKind(path string) (string, error) {
	var k struct {
		Bench string `json:"bench"`
	}
	err := readJSON(path, &k)
	return k.Bench, err
}

func main() {
	maxRatio := flag.Float64("max-conflict-ratio", 1.05, "table1: fail if on-conflicts exceed off-conflicts by more than this factor")
	minSpeedup := flag.Float64("min-speedup", 2.0, "shimscale: fail if fast-path throughput is below this multiple of the slow path")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-max-conflict-ratio 1.05] [-min-speedup 2.0] on.json off.json")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), flag.Arg(1), *maxRatio, *minSpeedup); err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("benchcmp: OK")
}

// run loads the two artifacts, dispatches on the first one's bench
// field, and returns the comparison's failure, if any.
func run(w io.Writer, onPath, offPath string, maxRatio, minSpeedup float64) error {
	kind, err := benchKind(onPath)
	if err != nil {
		return err
	}
	if kind == "shimscale" {
		on, err := loadShimscale(onPath, true)
		if err != nil {
			return err
		}
		off, err := loadShimscale(offPath, false)
		if err != nil {
			return err
		}
		return compareShimscale(w, on, off, minSpeedup)
	}
	on, err := loadTable1(onPath)
	if err != nil {
		return err
	}
	off, err := loadTable1(offPath)
	if err != nil {
		return err
	}
	return compareTable1(w, on, off, onPath, offPath, maxRatio)
}

// compareTable1 prints the per-program effort table for an on/off pair
// of table1 artifacts and fails on verdict drift or when on-conflicts
// exceed maxRatio times off-conflicts.
func compareTable1(w io.Writer, on, off *benchFile, onName, offName string, maxRatio float64) error {
	offRows := map[string]benchRow{}
	for _, r := range off.Rows {
		offRows[r.Program] = r
	}
	if len(on.Rows) != len(off.Rows) {
		return fmt.Errorf("program sets differ: %d rows in %s, %d in %s", len(on.Rows), onName, len(off.Rows), offName)
	}

	var mismatches []string
	reducedConflicts, reducedProps := 0, 0
	fmt.Fprintf(w, "%-22s %12s %12s %8s %14s %14s %8s\n",
		"program", "conflicts", "conflicts0", "Δ%", "propagations", "props0", "Δ%")
	for _, a := range on.Rows {
		b, ok := offRows[a.Program]
		if !ok {
			return fmt.Errorf("program %s present only in %s", a.Program, onName)
		}
		if a.Bugs != b.Bugs || a.BugsAfterInfer != b.BugsAfterInfer ||
			a.BugsAfterFixes != b.BugsAfterFixes || a.KeysAdded != b.KeysAdded {
			mismatches = append(mismatches, fmt.Sprintf("VERDICT MISMATCH %s: on=(%d,%d,%d,%d) off=(%d,%d,%d,%d)",
				a.Program, a.Bugs, a.BugsAfterInfer, a.BugsAfterFixes, a.KeysAdded,
				b.Bugs, b.BugsAfterInfer, b.BugsAfterFixes, b.KeysAdded))
		}
		if a.Conflicts < b.Conflicts {
			reducedConflicts++
		}
		if a.Propagations < b.Propagations {
			reducedProps++
		}
		fmt.Fprintf(w, "%-22s %12d %12d %7.1f%% %14d %14d %7.1f%%\n",
			a.Program, a.Conflicts, b.Conflicts, delta(a.Conflicts, b.Conflicts),
			a.Propagations, b.Propagations, delta(a.Propagations, b.Propagations))
	}

	fmt.Fprintf(w, "\ntotal conflicts: on=%d off=%d (%.1f%%); propagations: on=%d off=%d (%.1f%%)\n",
		on.TotalConflicts, off.TotalConflicts, delta(on.TotalConflicts, off.TotalConflicts),
		on.TotalPropagations, off.TotalPropagations, delta(on.TotalPropagations, off.TotalPropagations))
	fmt.Fprintf(w, "conflicts reduced on %d/%d programs; propagations reduced on %d/%d\n",
		reducedConflicts, len(on.Rows), reducedProps, len(on.Rows))

	if len(mismatches) > 0 {
		return fmt.Errorf("incremental mode changed verdicts:\n%s", strings.Join(mismatches, "\n"))
	}
	limit := float64(off.TotalConflicts) * maxRatio
	if float64(on.TotalConflicts) > limit {
		return fmt.Errorf("total conflicts regressed: on=%d > %.2f × off=%d",
			on.TotalConflicts, maxRatio, off.TotalConflicts)
	}
	return nil
}

// compareShimscale enforces the fast-path contract between a fastpath=on
// artifact and its fastpath=off twin: identical decisions, identical
// total assertion-evaluation counts, and a real speedup.
func compareShimscale(w io.Writer, on, off *shimscaleFile, minSpeedup float64) error {
	fmt.Fprintf(w, "%-10s %10s %10s %10s %12s %12s %14s\n",
		"fastpath", "updates", "accepted", "rejected", "fast-evals", "slow-evals", "updates/s")
	for _, f := range []*shimscaleFile{on, off} {
		fmt.Fprintf(w, "%-10v %10d %10d %10d %12d %12d %14.0f\n",
			f.Fastpath, f.Updates, f.Accepted, f.Rejected, f.FastHits, f.SlowHits, f.UpdatesPerSec)
	}

	if on.Scale != off.Scale || on.Updates != off.Updates {
		return fmt.Errorf("arms ran different workloads: scale %d/%d, updates %d/%d",
			on.Scale, off.Scale, on.Updates, off.Updates)
	}
	if on.Accepted != off.Accepted || on.Rejected != off.Rejected {
		return fmt.Errorf("DECISION MISMATCH: on=%d/%d off=%d/%d accepted/rejected — the fast path changed verdicts",
			on.Accepted, on.Rejected, off.Accepted, off.Rejected)
	}
	if off.FastHits != 0 {
		return fmt.Errorf("off artifact took the fast path %d times", off.FastHits)
	}
	if on.FastHits == 0 {
		return fmt.Errorf("on artifact never took the fast path")
	}
	if got, want := on.FastHits+on.SlowHits, off.SlowHits; got != want {
		return fmt.Errorf("evaluation counts differ: on=%d (fast+slow) off=%d — tiers did not judge the same assertions", got, want)
	}
	speedup := on.UpdatesPerSec / off.UpdatesPerSec
	fmt.Fprintf(w, "\nspeedup: %.2fx (minimum %.2fx)\n", speedup, minSpeedup)
	if speedup < minSpeedup {
		return fmt.Errorf("fast path speedup %.2fx below required %.2fx", speedup, minSpeedup)
	}
	return nil
}

// delta is the percentage change of on relative to off (negative =
// improvement).
func delta(on, off int64) float64 {
	if off == 0 {
		if on == 0 {
			return 0
		}
		return 100
	}
	return 100 * float64(on-off) / float64(off)
}
