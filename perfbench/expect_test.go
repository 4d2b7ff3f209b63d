package main

import (
	"os"
	"testing"

	"bf4/internal/shim"
	"bf4/internal/spec"
	"bf4/internal/trace"
)

func testExpected(t *testing.T) *expected {
	t.Helper()
	e, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCheckRowRejectsPlantedRow(t *testing.T) {
	e := testExpected(t)
	good := e.Verify["simple_nat"]
	if good != (row{Bugs: 6, AfterInfer: 2, AfterFixes: 0, Keys: 1, Rounds: 1}) {
		t.Fatalf("simple_nat expected row %+v disagrees with its signature 6/2/0/1", good)
	}
	if err := e.checkRow("simple_nat", good); err != nil {
		t.Fatalf("correct row rejected: %v", err)
	}
	bad := good
	bad.AfterInfer = 1
	if e.checkRow("simple_nat", bad) == nil {
		t.Error("planted wrong row accepted")
	}
	if e.checkRow("no_such_program", good) == nil {
		t.Error("row for an unknown program accepted")
	}
	st := e.Static["switch@16"]
	st.Discharged++
	if e.checkStatic("switch@16", st) == nil {
		t.Error("planted wrong static row accepted")
	}
}

// The expected file must agree with the corpus signature rows.
func TestExpectedSignatureRows(t *testing.T) {
	e := testExpected(t)
	if r := e.Verify["switch@1"]; r.Bugs != 15 || r.AfterInfer != 6 || r.AfterFixes != 0 || r.Keys != 6 {
		t.Errorf("switch@1 = %+v, want 15/6/0/6", r)
	}
	if r := e.Verify["arp"]; r.AfterInfer != 0 {
		t.Errorf("arp afterInfer = %d, want 0", r.AfterInfer)
	}
	if r := e.Verify["mplb_router-ppc"]; r.AfterFixes != 1 {
		t.Errorf("mplb_router-ppc afterFixes = %d, want 1", r.AfterFixes)
	}
	if n := len(corpusPrograms()); len(e.Verify) != n+1 {
		t.Errorf("%d verify rows, want %d corpus programs plus switch@1", len(e.Verify), n)
	}
}

func TestCheckEpochRejectsPlantedDecision(t *testing.T) {
	e := testExpected(t)
	data, err := os.ReadFile("../" + e.Shim.Spec)
	if err != nil {
		t.Fatal(err)
	}
	file, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := shim.Compile(file)
	if err != nil {
		t.Fatal(err)
	}
	const v = 3
	ds, _ := epochDecisions(cp, trace.NewGenerator(v, file).Updates(epochLen), false)
	if err := e.checkEpoch(v, ds); err != nil {
		t.Fatalf("slow tier disagrees with the pin: %v", err)
	}
	if e.checkEpoch(v+1, ds) == nil {
		t.Error("epoch accepted under another variant's pin")
	}
	flip := -1
	for i, d := range ds {
		if !d.ok {
			flip = i
			break
		}
	}
	planted := append([]decision(nil), ds...)
	planted[flip] = decision{ok: true}
	if e.checkEpoch(v, planted) == nil {
		t.Error("planted wrong decision accepted")
	}
	if n := diffDecisions(planted, ds); n != 1 {
		t.Errorf("diffDecisions = %d, want 1", n)
	}
	// Same verdicts, different rejection message: the digest catches it.
	reworded := append([]decision(nil), ds...)
	reworded[flip].msg += " (reworded)"
	if e.checkEpoch(v, reworded) == nil {
		t.Error("planted rejection message accepted")
	}
}
