package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"bf4/internal/progs"
	"bf4/internal/shim"
	"bf4/internal/spec"
	"bf4/internal/trace"
)

// program is one P4 program the verification workloads run.
type program struct{ name, src string }

// staticInput is one program the static workload compiles and analyzes.
type staticInput struct {
	name, src string
	props     string // .props spec text (property switch only)
	taint     bool   // lower with information-flow checks, run the taint analysis
}

// epoch is one controller session's updates, generated for a variant.
type epoch struct {
	variant int
	updates []*shim.Update
}

func (e epoch) name() string { return fmt.Sprintf("epoch%d", e.variant) }

// inputs is everything the program sees in one run. The seed fixes the
// corpus order and picks which of the pinned variants of the seeded
// generators (property switch, taint switch, shim epochs) the run uses,
// so every input has a known answer in expected.json.
type inputs struct {
	variant int
	corpus  []program
	switch1 program
	static  []staticInput
	cp      *shim.Compiled
	epochs  []epoch
}

const (
	variants  = 16
	epochLen  = 2000 // the paper's §5.3 controller trace length
	runEpochs = 8    // epochs per run: averages out one epoch's update mix
	setupReps = 25
)

func variantOf(seed int64) int { return int((seed%variants + variants) % variants) }

// corpusPrograms is progs.All() minus the generated switch, which has
// its own workload.
func corpusPrograms() []program {
	var out []program
	for _, p := range progs.All() {
		if p.Name != "switch" {
			out = append(out, program{p.Name, p.Source})
		}
	}
	return out
}

// setupTimes are the timed parts of one input build.
type setupTimes struct {
	total, specParse, shimCompile time.Duration
}

// buildInputs generates every workload's inputs (the benchmark builds
// the same set whichever workload runs, so setup_s is one quantity):
// sources for the verification and static workloads, then the shim's
// annotations (spec.Parse, shim.Compile) and its controller epochs.
func buildInputs(seed int64, specPath string) (*inputs, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	in := &inputs{variant: variantOf(seed)}
	in.corpus = corpusPrograms()
	for _, p := range in.corpus {
		in.static = append(in.static, staticInput{name: p.name, src: p.src})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(in.corpus), func(i, j int) {
		in.corpus[i], in.corpus[j] = in.corpus[j], in.corpus[i]
	})
	in.switch1 = program{"switch@1", progs.GenerateSwitch(1)}
	propSrc, props := progs.GeneratePropSwitch(8, in.variant)
	in.static = append(in.static,
		staticInput{name: "switch@16", src: progs.GenerateSwitch(16)},
		staticInput{name: "propswitch@8", src: propSrc, props: props},
		staticInput{name: "taintswitch@8", src: progs.GenerateTaintSwitch(8, in.variant, true), taint: true})

	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, st, err
	}
	t := time.Now()
	file, err := spec.Parse(data)
	st.specParse = time.Since(t)
	if err != nil {
		return nil, st, fmt.Errorf("spec.Parse %s: %w", specPath, err)
	}
	t = time.Now()
	in.cp, err = shim.Compile(file)
	st.shimCompile = time.Since(t)
	if err != nil {
		return nil, st, fmt.Errorf("shim.Compile: %w", err)
	}
	for k := 0; k < runEpochs; k++ {
		v := (in.variant + k) % variants
		e := epoch{v, trace.NewGenerator(int64(v), file).Updates(epochLen)}
		if len(e.updates) != epochLen {
			return nil, st, fmt.Errorf("trace generator made %d updates, want %d", len(e.updates), epochLen)
		}
		in.epochs = append(in.epochs, e)
	}
	st.total = time.Since(start)
	return in, st, nil
}
