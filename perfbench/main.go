// Command perfbench is bf4's benchmark: it runs one workload for a fixed
// time, checks every output against expected.json, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1) as the last line of standard output:
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
//
// Workloads: corpus (full loop over the hand-written corpus), switch1
// (full loop on the generated switch at scale 1), static (every layer up
// to the solver), shim (controller updates through the runtime shim).
// README.md defines every metric and maps each per-layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	in      *inputs
	exp     *expected
	budget  time.Duration
	traced  bool
	tr      *tracer
	metrics map[string]metric

	attempted, failed int64
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// check counts one checked operation and reports a mismatch.
func (b *bench) check(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

// note prints a timing's median, quartiles and sample count on a
// detail line ahead of the result.
func note(name string, s summary, unit string) {
	fmt.Printf("# %s median=%.6g q1=%.6g q3=%.6g n=%d %s\n", name, s.Median, s.Q1, s.Q3, s.N, unit)
}

// repeat calls pass until budget is spent: at least once, and not again
// when half a median pass would overrun the budget.
func repeat(budget time.Duration, pass func() time.Duration) []time.Duration {
	start := time.Now()
	var ds []time.Duration
	for {
		ds = append(ds, pass())
		typical := time.Duration(median(seconds(ds)) * float64(time.Second))
		if time.Since(start)+typical/2 >= budget {
			return ds
		}
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	var (
		workload = flag.String("workload", "", "corpus, switch1, static or shim")
		seed     = flag.Int64("seed", 1, "seed for the corpus order and the input variant")
		secs     = flag.Float64("seconds", 20, "measurement time")
		traceOn  = flag.Int("trace", 0, "1 runs the traced composition and prints per-layer metrics")
		outDir   = flag.String("out-dir", ".bench_build", "directory for the traced run's span dump")
		answers  = flag.Bool("print-expected", false, "print the program's current answers in expected.json's format and exit")
	)
	flag.Parse()
	err := func() error {
		exp, err := loadExpected(expectedPath)
		if err != nil {
			return err
		}
		if *answers {
			return printExpected(exp.Shim)
		}
		if *traceOn != 0 && *traceOn != 1 {
			return fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
		}
		if *secs <= 0 {
			return fmt.Errorf("--seconds must be positive, got %v", *secs)
		}
		out, err := run(exp, *workload, *seed, *secs, *traceOn == 1, *outDir)
		if err != nil {
			return err
		}
		data, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload and returns its result line.
func run(exp *expected, workload string, seed int64, secs float64, traced bool, outDir string) (*output, error) {
	wl, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want corpus, switch1, static or shim)", workload)
	}
	sum, err := fileSHA256(exp.Shim.Spec)
	if err != nil {
		return nil, err
	}
	if sum != exp.Shim.SpecSHA256 {
		return nil, fmt.Errorf("%s: sha256 %s, want %s", exp.Shim.Spec, sum, exp.Shim.SpecSHA256)
	}

	b := &bench{exp: exp, budget: time.Duration(secs * float64(time.Second)), traced: traced, metrics: map[string]metric{}}
	var setup []setupTimes
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each rep starts from the same heap
		in, st, err := buildInputs(seed, exp.Shim.Spec)
		if err != nil {
			return nil, err
		}
		b.in = in
		setup = append(setup, st)
	}
	if traced {
		b.tr = newTracer()
		b.setupLayers(setup)
	} else {
		var ts []float64
		for _, st := range setup {
			ts = append(ts, st.total.Seconds())
		}
		s := summarize(ts)
		note("setup_s", s, "s")
		b.set("setup_s", s.Median, "s")
	}

	if err := wl(b); err != nil {
		return nil, err
	}
	if !traced {
		b.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		b.fillLayers()
		b.tr.finish()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("# spans written to %s (%d spans)\n", path, len(b.tr.spans))
	}
	names := make([]string, 0, len(b.metrics))
	for n, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %s = %v %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	return &output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}, nil
}

var workloads = map[string]func(*bench) error{
	"corpus":  func(b *bench) error { return b.verify(b.in.corpus) },
	"switch1": func(b *bench) error { return b.verify([]program{b.in.switch1}) },
	"static":  (*bench).static,
	"shim":    (*bench).shim,
}
