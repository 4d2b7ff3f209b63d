package main

import (
	"encoding/json"
	"fmt"
	"os"

	"bf4/internal/driver"
	"bf4/internal/progs"
	"bf4/internal/shim"
	"bf4/internal/spec"
	"bf4/internal/trace"
)

// printExpected prints the program's current answers for every input
// in expected.json's format: the rows driver.Run produces, the static
// counts, and each variant's shim epoch pin computed on the slow tier.
// It is how expected.json was produced; a change that legitimately moves
// an answer regenerates the file with it, and the diff is reviewed.
func printExpected(se shimExpect) error {
	e := expected{Verify: map[string]row{}, Static: map[string]staticRow{}, Shim: se}
	dc := verifyConfig()
	ps := append(corpusPrograms(), program{"switch@1", progs.GenerateSwitch(1)})
	for _, p := range ps {
		res, err := driver.Run(p.name, p.src, dc)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		e.Verify[p.name] = rowOf(res)
	}
	// The seeded inputs must give the same counts for every variant;
	// only their layout moves with the seed.
	for v := 0; v < variants; v++ {
		in, _, err := buildInputs(int64(v), se.Spec)
		if err != nil {
			return err
		}
		for _, si := range in.static {
			r, err := compileStatic(nil, -1, si, nil)
			if err != nil {
				return err
			}
			if old, ok := e.Static[si.name]; ok && old != r {
				return fmt.Errorf("%s: variant %d gives %+v, variant 0 %+v", si.name, v, r, old)
			}
			e.Static[si.name] = r
		}
	}
	data, err := os.ReadFile(se.Spec)
	if err != nil {
		return err
	}
	file, err := spec.Parse(data)
	if err != nil {
		return err
	}
	cp, err := shim.Compile(file)
	if err != nil {
		return err
	}
	e.Shim.Epochs = nil
	for v := 0; v < variants; v++ {
		epoch := trace.NewGenerator(int64(v), file).Updates(epochLen)
		ds, _ := epochDecisions(cp, epoch, false)
		e.Shim.Epochs = append(e.Shim.Epochs, pinOf(ds))
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
