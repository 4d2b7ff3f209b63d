package main

import (
	"testing"

	"bf4/internal/driver"
	"bf4/internal/obs"
	"bf4/internal/progs"
)

// The traced composition must reproduce driver.Run: same row, same
// initial bug verdicts, and a span for every layer it calls.
func TestTracedVerifyMatchesDriver(t *testing.T) {
	dc := verifyConfig()
	for _, name := range []string{"simple_nat", "arp"} {
		src := progs.Get(name).Source
		want, err := driver.Run(name, src, dc)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		root := tr.begin("pass", "", -1)
		var c counts
		got, pl, rep, err := tracedVerify(tr, name, root, src, dc, obs.NewRegistry(), &c)
		tr.end(root)
		if err != nil {
			t.Fatal(err)
		}
		if got != rowOf(want) {
			t.Errorf("%s: traced row %+v, driver.Run %+v", name, got, rowOf(want))
		}
		if len(rep.Bugs) != len(want.InitialRep.Bugs) {
			t.Fatalf("%s: %d bugs, driver.Run %d", name, len(rep.Bugs), len(want.InitialRep.Bugs))
		}
		for i, b := range rep.Bugs {
			w := want.InitialRep.Bugs[i]
			if b.Node.ID != w.Node.ID || b.Reachable != w.Reachable || b.Discharged != w.Discharged {
				t.Errorf("%s: bug %d: %s reachable=%v, driver.Run %s reachable=%v",
					name, i, b.Description(), b.Reachable, w.Description(), w.Reachable)
			}
		}
		if pl.SliceStats != want.Initial.SliceStats {
			t.Errorf("%s: slice stats %+v, driver.Run %+v", name, pl.SliceStats, want.Initial.SliceStats)
		}
		tr.finish()
		byName, _ := tr.passLayers(root)
		for _, sp := range []string{"p4.parse", "ir.lower", "wp", "analysis", "core.findbugs", "infer", "fixes"} {
			if byName[sp] <= 0 {
				t.Errorf("%s: no time recorded in %s spans", name, sp)
			}
		}
		if (byName["rebuild"] > 0) != (want.Rounds > 0) {
			t.Errorf("%s: rebuild spans %d ns with %d rounds", name, byName["rebuild"], want.Rounds)
		}
	}
}
