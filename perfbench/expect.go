package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// expectedPath holds the known answers every run is checked against,
// relative to the checkout root.
const expectedPath = "perfbench/expected.json"

// expected is the benchmark's answer key. The verify rows were checked
// by hand against the corpus signature rows (simple_nat 6/2/0/1, arp
// afterInfer 0, mplb_router-ppc afterFixes 1, switch@1 15/6/0/6); the
// static rows and shim pins were produced by the program and reviewed
// for plausibility (see README.md in this directory).
type expected struct {
	// Verify maps a program to its full-loop row.
	Verify map[string]row `json:"verify"`
	// Static maps a compiled input to its compile and analysis counts.
	Static map[string]staticRow `json:"static"`
	Shim   shimExpect           `json:"shim"`
}

// staticRow is what the compile layers and the analysis produce for
// one input.
type staticRow struct {
	Nodes       int `json:"nodes"`
	BugNodes    int `json:"bug_nodes"`
	Discharged  int `json:"discharged"`
	TaintAlarms int `json:"taint_alarms"`
}

// shimExpect pins the shim workload's input and its decisions.
type shimExpect struct {
	// Spec is the committed annotation file, SpecSHA256 its digest, and
	// SpecCommand the command that produced it.
	Spec        string `json:"spec"`
	SpecSHA256  string `json:"spec_sha256"`
	SpecCommand string `json:"spec_command"`
	// Epochs pins each seed variant's epoch (index = variant).
	Epochs []epochPin `json:"epochs"`
}

type epochPin struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Digest   string `json:"digest"`
}

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

func (e *expected) checkRow(name string, got row) error {
	want, ok := e.Verify[name]
	if !ok {
		return fmt.Errorf("%s: no expected row", name)
	}
	if got != want {
		return fmt.Errorf("%s: row %+v, want %+v", name, got, want)
	}
	return nil
}

func (e *expected) checkStatic(name string, got staticRow) error {
	want, ok := e.Static[name]
	if !ok {
		return fmt.Errorf("%s: no expected static row", name)
	}
	if got != want {
		return fmt.Errorf("%s: static row %+v, want %+v", name, got, want)
	}
	return nil
}

// decision is the shim's verdict on one update: accepted, or rejected
// with the rejection message.
type decision struct {
	ok  bool
	msg string
}

// digest fingerprints a decision sequence, rejection messages included.
func digest(ds []decision) string {
	h := sha256.New()
	for i, d := range ds {
		if d.ok {
			fmt.Fprintf(h, "%d ACCEPT\n", i)
		} else {
			fmt.Fprintf(h, "%d REJECT %s\n", i, d.msg)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func pinOf(ds []decision) epochPin {
	p := epochPin{Digest: digest(ds)}
	for _, d := range ds {
		if d.ok {
			p.Accepted++
		} else {
			p.Rejected++
		}
	}
	return p
}

// checkEpoch compares a verification epoch's decisions with the pin for
// its variant.
func (e *expected) checkEpoch(variant int, ds []decision) error {
	if variant < 0 || variant >= len(e.Shim.Epochs) {
		return fmt.Errorf("shim: no pin for variant %d", variant)
	}
	if got, want := pinOf(ds), e.Shim.Epochs[variant]; got != want {
		return fmt.Errorf("shim variant %d: epoch %+v, want %+v", variant, got, want)
	}
	return nil
}

// diffDecisions counts the updates on which two replays of one epoch
// disagree, rejection messages included.
func diffDecisions(a, b []decision) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func fileSHA256(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
