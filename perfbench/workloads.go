package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"bf4/internal/analysis"
	"bf4/internal/core"
	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/prop"
	"bf4/internal/shim"
)

// verifyConfig is the configuration every verification workload runs:
// the paper's defaults, serially (the paper's timing method).
func verifyConfig() driver.Config {
	dc := driver.DefaultConfig()
	dc.Workers = 1
	return dc
}

// replay checks every reachable bug's witness on the interpreter.
func (b *bench) replay(name string, pl *core.Pipeline, rep *core.Report) {
	for _, bug := range rep.Bugs {
		if !bug.Reachable {
			continue
		}
		tr, err := pl.Counterexample(bug)
		if err == nil && tr.Terminal != bug.Node {
			err = fmt.Errorf("replay ended at n%d", tr.Terminal.ID)
		}
		if err != nil {
			err = fmt.Errorf("%s: witness for %s: %w", name, bug.Description(), err)
		}
		b.check(err)
	}
}

// verify runs the full loop (driver.Run) over ps, one program after
// another, for the run's budget. The traced run spends half the budget
// so, then composes the same loop from the layers' public calls.
func (b *bench) verify(ps []program) error {
	dc := verifyConfig()
	var ops, cpus []time.Duration
	replayed := false
	// A pass's time is the sum of its programs' runs; each program's
	// row is checked, and on the first pass its witnesses replayed,
	// between runs with the clock stopped, so no result outlives its
	// check.
	untracedPass := func() time.Duration {
		runtime.GC() // start from a collected heap, as a fresh bf4 process would
		var sw stopwatch
		for _, p := range ps {
			sw.start()
			res, err := driver.Run(p.name, p.src, dc)
			ops = append(ops, sw.stop())
			if err == nil {
				err = b.exp.checkRow(p.name, rowOf(res))
			}
			b.check(err)
			if err == nil && !replayed {
				b.replay(p.name, res.Initial, res.InitialRep)
			}
		}
		replayed = true
		cpus = append(cpus, sw.cpu)
		return sw.wall
	}
	if !b.traced {
		b.passMetrics(repeat(b.budget, untracedPass), cpus, ops, len(ps))
		return nil
	}

	untraced := repeat(b.budget/2, untracedPass)
	replayed = false
	b.tracedPhase(untraced, func() tracedPass {
		runtime.GC()
		reg := obs.NewRegistry()
		var c counts
		root := b.tr.begin("pass", "", -1)
		type out struct {
			r   row
			pl  *core.Pipeline
			rep *core.Report
			err error
		}
		outs := make([]out, len(ps))
		for i, p := range ps {
			o := &outs[i]
			o.r, o.pl, o.rep, o.err = tracedVerify(b.tr, p.name, root, p.src, dc, reg, &c)
		}
		b.tr.end(root)
		for i, p := range ps {
			err := outs[i].err
			if err == nil {
				err = b.exp.checkRow(p.name, outs[i].r)
			}
			b.check(err)
			if err == nil && !replayed {
				b.replay(p.name, outs[i].pl, outs[i].rep)
			}
		}
		replayed = true
		return tracedPass{root, countLayers(reg, &c)}
	})
	return nil
}

// passMetrics reports the end-to-end timing metrics of the untraced
// passes: wall and CPU time per pass, and per operation (one program's
// run) the rate and the latency percentiles.
func (b *bench) passMetrics(passes, cpus, ops []time.Duration, opsPerPass int) {
	b.passTimes(passes, cpus, opsPerPass)
	us := seconds(ops)
	for i := range us {
		us[i] *= 1e6
	}
	note("op_us", summarize(us), "us")
	b.set("op_us_p50", quantile(us, 0.5), "us")
	b.set("op_us_p99", quantile(us, 0.99), "us")
}

// passTimes reports pass_s and pass_cpu_s, each a median over the
// passes, and the operation rate of a median pass.
func (b *bench) passTimes(passes, cpus []time.Duration, opsPerPass int) {
	s := summarize(seconds(passes))
	note("pass_s", s, "s")
	b.set("pass_s", s.Median, "s")
	c := summarize(seconds(cpus))
	note("pass_cpu_s", c, "s")
	b.set("pass_cpu_s", c.Median, "s")
	b.set("ops_per_s", float64(opsPerPass)/s.Median, "1/s")
}

// compileStatic runs one static input through the compile layers and
// the analysis: core.Compile plus analysis.Run, with the property DSL's
// parser and instrumenter for the property switch, and the information
// flow lowering plus the taint analysis for the taint switch. With a
// tracer the compile is composed from the layers' public calls instead,
// with a span around each call.
func compileStatic(tr *tracer, parent int, in staticInput, c *counts) (staticRow, error) {
	var r staticRow
	call := func(name string, f func()) {
		if tr == nil {
			f()
		} else {
			tr.call(name, in.name, parent, f)
		}
	}
	opts := ir.DefaultOptions()
	if in.props != "" {
		var props []*prop.Property
		var err error
		call("prop.parse", func() {
			if props, err = prop.ExtractSource(in.name, in.src); err != nil {
				return
			}
			var extra []*prop.Property
			extra, err = prop.ParseSpecFile(in.name+".props", []byte(in.props))
			props = append(props, extra...)
			prop.Sort(props)
		})
		if err != nil {
			return r, err
		}
		opts.Instrument = prop.Instrumenter(props)
	}
	if in.taint {
		opts.CheckInfoFlow = true
		opts.TaintDefaultPolicy = true
	}
	var pl *core.Pipeline
	var err error
	if tr == nil {
		pl, err = core.Compile(in.src, opts, true)
	} else {
		pl, err = tracedCompile(tr, in.name, parent, in.src, opts, true, c)
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w", in.name, err)
	}
	var ar *analysis.Result
	call("analysis", func() { ar = analysis.Run(pl.IR, pl.AST) })
	r = staticRow{Nodes: len(pl.IR.Nodes), BugNodes: len(pl.IR.Bugs), Discharged: len(ar.Discharge)}
	if in.taint {
		var tres *analysis.TaintResult
		call("analysis", func() { tres = analysis.RunTaint(pl.IR) })
		r.TaintAlarms = len(tres.Alarms)
	}
	if c != nil {
		c.analysisBugs += r.BugNodes
		c.discharged += r.Discharged
	}
	return r, nil
}

// static runs every layer up to the solver over the corpus, the switch
// at scale 16, the property switch and the taint switch.
func (b *bench) static() error {
	var ops, cpus []time.Duration
	check := func(in staticInput, r staticRow, err error) {
		if err == nil {
			err = b.exp.checkStatic(in.name, r)
		}
		b.check(err)
	}
	untracedPass := func() time.Duration {
		runtime.GC() // as in verify
		var sw stopwatch
		for _, in := range b.in.static {
			sw.start()
			r, err := compileStatic(nil, -1, in, nil)
			ops = append(ops, sw.stop())
			check(in, r, err)
		}
		cpus = append(cpus, sw.cpu)
		return sw.wall
	}
	if !b.traced {
		b.passMetrics(repeat(b.budget, untracedPass), cpus, ops, len(b.in.static))
		return nil
	}
	untraced := repeat(b.budget/2, untracedPass)
	b.tracedPhase(untraced, func() tracedPass {
		runtime.GC()
		var c counts
		root := b.tr.begin("pass", "", -1)
		for _, in := range b.in.static {
			top := b.tr.begin("program", in.name, root)
			r, err := compileStatic(b.tr, top, in, &c)
			b.tr.end(top)
			check(in, r, err)
		}
		b.tr.end(root)
		return tracedPass{root, countLayers(obs.NewRegistry(), &c)}
	})
	return nil
}

// epochDecisions replays an epoch with a fresh shadow state on one
// tier: the slow tier (term-DAG evaluation) is the reference the fast
// path is proven against. It also returns the shim's counters.
func epochDecisions(cp *shim.Compiled, epoch []*shim.Update, fast bool) ([]decision, shim.Stats) {
	s := shim.NewFromCompiled(cp)
	s.SetFastpath(fast)
	out := make([]decision, len(epoch))
	for i, u := range epoch {
		if err := s.Apply(u); err != nil {
			out[i] = decision{msg: err.Error()}
		} else {
			out[i] = decision{ok: true}
		}
	}
	return out, s.Counters()
}

// shim replays the run's seeded 2000-update epochs through the shim, a
// fresh shadow state per epoch (one controller session), in a closed
// loop: one in-process controller that waits for each Apply. Whole-epoch
// timings (pass_s, ops_per_s) and per-update timings (latency
// percentiles) come from alternate passes, so the per-update clock
// reads never weigh on the throughput figure.
func (b *bench) shim() error {
	cp, epochs := b.in.cp, b.in.epochs
	// Each epoch's slow-tier verdicts are pinned and are the reference
	// for every fast-tier replay; the evaluation counts of the fast tier
	// are deterministic per epoch, so they are read here once.
	slow := make([][]decision, len(epochs))
	var fastEvals, slowEvals int
	for k, e := range epochs {
		slow[k], _ = epochDecisions(cp, e.updates, false)
		b.check(b.exp.checkEpoch(e.variant, slow[k]))
		fast, st := epochDecisions(cp, e.updates, true)
		b.attempted += epochLen
		if n := diffDecisions(fast, slow[k]); n > 0 {
			b.failed += int64(n)
			fmt.Fprintf(os.Stderr, "perfbench: variant %d: fast tier disagrees with the slow tier on %d updates\n", e.variant, n)
		}
		fastEvals += st.FastpathHits
		slowEvals += st.SlowpathHits
	}
	accepted := make([]bool, epochLen)
	// checkEpoch compares the last replay's verdicts with the reference.
	checkEpoch := func(k int) {
		b.attempted += int64(epochLen)
		for i, ok := range accepted {
			if ok != slow[k][i].ok {
				b.failed++
			}
		}
	}
	// A pass replays every epoch of the run once, each checked with the
	// clock stopped. Without histograms it times whole epochs; with
	// them it times every Apply and files it by verdict, and under a
	// traced parent span it records a span per epoch.
	var cpus []time.Duration
	pass := func(acc, rej *latencyHist, parent int) time.Duration {
		var sw stopwatch
		for k, e := range epochs {
			if acc == nil {
				sw.start()
				s := shim.NewFromCompiled(cp)
				for i, u := range e.updates {
					accepted[i] = s.Apply(u) == nil
				}
				sw.stop()
			} else {
				id := -1
				if parent >= 0 {
					id = b.tr.begin("shim.epoch", e.name(), parent)
				}
				s := shim.NewFromCompiled(cp)
				for i, u := range e.updates {
					t := time.Now()
					err := s.Apply(u)
					d := time.Since(t)
					accepted[i] = err == nil
					if err == nil {
						acc.add(d)
					} else {
						rej.add(d)
					}
				}
				if id >= 0 {
					b.tr.end(id)
				}
			}
			checkEpoch(k)
		}
		if acc == nil {
			cpus = append(cpus, sw.cpu)
		}
		return sw.wall
	}
	opsPerPass := len(epochs) * epochLen

	if !b.traced {
		var whole []time.Duration
		lat := newLatencyHist()
		repeat(b.budget, func() time.Duration {
			start := time.Now()
			whole = append(whole, pass(nil, nil, -1))
			pass(lat, lat, -1)
			return time.Since(start)
		})
		b.passTimes(whole, cpus, opsPerPass)
		fmt.Printf("# op_us samples=%d\n", lat.n)
		b.set("op_us_p50", lat.quantile(0.5)/1e3, "us")
		b.set("op_us_p99", lat.quantile(0.99)/1e3, "us")
		return nil
	}

	// Traced run: whole-epoch passes for half the budget, then traced
	// passes, each epoch a span.
	untraced := repeat(b.budget/2, func() time.Duration { return pass(nil, nil, -1) })
	acc, rej := newLatencyHist(), newLatencyHist()
	b.tracedPhase(untraced, func() tracedPass {
		root := b.tr.begin("pass", "", -1)
		pass(acc, rej, root)
		b.tr.end(root)
		return tracedPass{root, nil}
	})
	b.set("shim.apply_ns", float64(acc.sum+rej.sum)/float64(acc.n+rej.n), "ns")
	b.set("shim.accept_us_p50", acc.quantile(0.5)/1e3, "us")
	b.set("shim.reject_us_p50", rej.quantile(0.5)/1e3, "us")
	b.set("shim.fast_ratio", ratio(fastEvals, fastEvals+slowEvals), "ratio")
	b.set("shim.slow_evals", float64(slowEvals)/float64(len(epochs)), "count")
	return nil
}
