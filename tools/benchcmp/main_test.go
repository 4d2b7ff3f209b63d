package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// table1Pair returns an on/off pair of table1 artifacts with identical
// verdicts and equal effort.
func table1Pair() (on, off *benchFile) {
	mk := func(incremental bool) *benchFile {
		rows := []benchRow{
			{Program: "arp", Bugs: 4, BugsAfterInfer: 0, KeysAdded: 0, Conflicts: 10, Propagations: 1000},
			{Program: "simple_nat", Bugs: 6, BugsAfterInfer: 2, KeysAdded: 1, Conflicts: 90, Propagations: 9000},
		}
		return &benchFile{Bench: "table1", Incremental: incremental, Programs: len(rows),
			TotalConflicts: 100, TotalPropagations: 10000, Rows: rows}
	}
	return mk(true), mk(false)
}

func shimscalePair() (on, off *shimscaleFile) {
	on = &shimscaleFile{Bench: "shimscale", Fastpath: true, Scale: 2, Updates: 6000,
		Accepted: 4500, Rejected: 1500, FastHits: 9000, SlowHits: 100, UpdatesPerSec: 500000}
	off = &shimscaleFile{Bench: "shimscale", Fastpath: false, Scale: 2, Updates: 6000,
		Accepted: 4500, Rejected: 1500, FastHits: 0, SlowHits: 9100, UpdatesPerSec: 100000}
	return on, off
}

func TestTable1PassingPair(t *testing.T) {
	on, off := table1Pair()
	var out strings.Builder
	if err := compareTable1(&out, on, off, "on.json", "off.json", 1.05); err != nil {
		t.Fatalf("identical pair failed: %v", err)
	}
	if !strings.Contains(out.String(), "total conflicts: on=100 off=100") {
		t.Fatalf("summary line missing from output:\n%s", out.String())
	}
}

func TestTable1ConflictRatio(t *testing.T) {
	on, off := table1Pair()
	on.TotalConflicts = 105 // exactly at the bound: allowed
	if err := compareTable1(io.Discard, on, off, "on.json", "off.json", 1.05); err != nil {
		t.Fatalf("on = 1.05 × off must pass: %v", err)
	}
	on.TotalConflicts = 106
	err := compareTable1(io.Discard, on, off, "on.json", "off.json", 1.05)
	if err == nil || !strings.Contains(err.Error(), "total conflicts regressed") {
		t.Fatalf("on = 1.06 × off: got %v, want a conflict regression", err)
	}
}

func TestTable1VerdictDrift(t *testing.T) {
	on, off := table1Pair()
	on.Rows[1].BugsAfterInfer = 3
	err := compareTable1(io.Discard, on, off, "on.json", "off.json", 1.05)
	if err == nil || !strings.Contains(err.Error(), "VERDICT MISMATCH simple_nat") {
		t.Fatalf("got %v, want a verdict mismatch on simple_nat", err)
	}

	on, off = table1Pair()
	on.Rows = on.Rows[:1]
	if err := compareTable1(io.Discard, on, off, "on.json", "off.json", 1.05); err == nil ||
		!strings.Contains(err.Error(), "program sets differ") {
		t.Fatalf("got %v, want a program-set mismatch", err)
	}
}

func TestShimscaleDecisionMismatch(t *testing.T) {
	on, off := shimscalePair()
	if err := compareShimscale(io.Discard, on, off, 2.0); err != nil {
		t.Fatalf("matching pair failed: %v", err)
	}
	on.Accepted, on.Rejected = 4499, 1501
	err := compareShimscale(io.Discard, on, off, 2.0)
	if err == nil || !strings.Contains(err.Error(), "DECISION MISMATCH") {
		t.Fatalf("got %v, want a decision mismatch", err)
	}
}

func TestShimscaleMinSpeedup(t *testing.T) {
	on, off := shimscalePair()
	on.UpdatesPerSec = 150000 // 1.5x
	err := compareShimscale(io.Discard, on, off, 2.0)
	if err == nil || !strings.Contains(err.Error(), "below required 2.00x") {
		t.Fatalf("got %v, want a speedup failure", err)
	}
	if err := compareShimscale(io.Discard, on, off, 1.5); err != nil {
		t.Fatalf("1.5x against -min-speedup 1.5 must pass: %v", err)
	}
}

// TestRunDispatch drives run end to end over artifact files: it must
// pick the comparison from the first artifact's bench field and reject
// a shimscale pair in the wrong order.
func TestRunDispatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	on, off := table1Pair()
	if err := run(io.Discard, write("on.json", on), write("off.json", off), 1.05, 2.0); err != nil {
		t.Fatalf("table1 pair: %v", err)
	}
	son, soff := shimscalePair()
	sonPath, soffPath := write("s-on.json", son), write("s-off.json", soff)
	if err := run(io.Discard, sonPath, soffPath, 1.05, 2.0); err != nil {
		t.Fatalf("shimscale pair: %v", err)
	}
	if err := run(io.Discard, soffPath, sonPath, 1.05, 2.0); err == nil {
		t.Fatalf("swapped shimscale pair passed")
	}
}
