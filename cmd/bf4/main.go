// Command bf4 is the compile-time half of the system: it verifies a P4
// program, infers controller annotations, proposes fixes and emits the
// artifacts the runtime shim consumes.
//
// Usage:
//
//	bf4 [flags] program.p4
//	bf4 [flags] -corpus simple_nat
//	bf4 [flags] -switch-scale 8
//
// Flags:
//
//	-spec out.json     write the controller assertions + table schemas
//	-fixed out.p4      write the fixed program (keys added)
//	-render            print the SQL-like assertion rendering
//	-no-slice          disable bug-reachability slicing
//	-rewrite on|off    term-level simplification before bit-blasting
//	-incremental on|off  bug checks in retractable scopes (on) or as
//	                   Check assumptions (off); verdicts identical
//	-no-dontcare       disable dontCare-widened inference
//	-no-multitable     disable the multi-table heuristic
//	-j N               inference worker pool size (0 = GOMAXPROCS);
//	                   output is identical for every value
//	-metrics-json f    write run metrics (counters, gauges, histograms)
//	                   as JSON to f ("-" for stdout)
//	-trace-out f       write the hierarchical phase-timing tree to f
//	                   ("-" for stdout)
//	-v                 verbose: list every bug with its verdict
package main

import (
	"flag"
	"fmt"
	"os"

	"bf4/internal/analysis"
	"bf4/internal/driver"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/progs"
	"bf4/internal/prop"
	"bf4/internal/spec"
)

// gatherProps collects the properties for a -check=assert run: source
// comments in the program plus an optional .props spec file.
func gatherProps(name, src, specFile string) ([]*prop.Property, error) {
	props, err := prop.ExtractSource(name, src)
	if err != nil {
		return nil, err
	}
	if specFile != "" {
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		ps, err := prop.ParseSpecFile(specFile, data)
		if err != nil {
			return nil, err
		}
		props = append(props, ps...)
	}
	prop.Sort(props)
	return props, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		lintMain(os.Args[2:])
		return
	}
	var (
		corpusName   = flag.String("corpus", "", "analyze a named corpus program (see -list)")
		list         = flag.Bool("list", false, "list corpus programs and exit")
		switchScale  = flag.Int("switch-scale", 0, "analyze a generated switch program at this scale")
		specOut      = flag.String("spec", "", "write controller assertions (JSON) to this file")
		fixedOut     = flag.String("fixed", "", "write the fixed P4 program to this file")
		render       = flag.Bool("render", false, "print assertions in SQL-like form")
		noSlice      = flag.Bool("no-slice", false, "disable slicing")
		noDontCare   = flag.Bool("no-dontcare", false, "disable dontCare handling")
		noMultiTable = flag.Bool("no-multitable", false, "disable the multi-table heuristic")
		verbose      = flag.Bool("v", false, "verbose bug listing")
		showTrace    = flag.Bool("trace", false, "print a counterexample trace for each reachable bug")
		jobs         = flag.Int("j", 0, "inference worker pool size (0 = GOMAXPROCS; results identical for every value)")
		analysisMode = flag.String("analysis", "on", "static-analysis pre-pass: on discharges statically-safe checks before the solver, off runs every query (verdicts are identical either way)")
		rewriteMode  = flag.String("rewrite", "on", "term-level rewrite engine: on simplifies formulas through the known-bits + interval domain before bit-blasting, off blasts them as built (verdicts are identical either way)")
		incrMode     = flag.String("incremental", "on", "incremental solver core: on asserts each bug check inside a retractable scope on the slice's persistent solver, off passes it as a Check assumption (verdicts are identical either way)")
		metricsOut   = flag.String("metrics-json", "", "write run metrics as JSON to this file (\"-\" for stdout; verdicts are identical with metrics on or off)")
		traceOut     = flag.String("trace-out", "", "write the hierarchical phase-timing tree to this file (\"-\" for stdout)")
		check        = flag.String("check", "", "enable extra bug classes: iflow adds information-flow leak checks (sensitive data reaching egress-visible sinks); assert compiles user @assert/@assume properties (source comments plus -prop-spec) into the verified set")
		propSpec     = flag.String("prop-spec", "", "with -check=assert: read additional @assert/@assume properties from this .props spec file")
	)
	flag.Parse()

	if *list {
		for _, p := range progs.All() {
			fmt.Printf("%-22s %s\n", p.Name, p.Description)
		}
		return
	}

	name, src := "", ""
	switch {
	case *corpusName != "":
		p := progs.Get(*corpusName)
		if p == nil {
			fatalf("unknown corpus program %q (use -list)", *corpusName)
		}
		name, src = p.Name, p.Source
	case *switchScale > 0:
		name, src = fmt.Sprintf("switch@%d", *switchScale), progs.GenerateSwitch(*switchScale)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		name, src = flag.Arg(0), string(data)
	default:
		flag.Usage()
		os.Exit(2)
	}

	cfg := driver.DefaultConfig()
	switch *analysisMode {
	case "on":
		cfg.Analysis = true
	case "off":
		cfg.Analysis = false
	default:
		fatalf("bf4: -analysis must be on or off, got %q", *analysisMode)
	}
	switch *rewriteMode {
	case "on":
		cfg.Rewrite = true
	case "off":
		cfg.Rewrite = false
	default:
		fatalf("bf4: -rewrite must be on or off, got %q", *rewriteMode)
	}
	switch *incrMode {
	case "on":
		cfg.Incremental = true
	case "off":
		cfg.Incremental = false
	default:
		fatalf("bf4: -incremental must be on or off, got %q", *incrMode)
	}
	checkAssert := false
	switch *check {
	case "":
	case "iflow":
		cfg.IR.CheckInfoFlow = true
		cfg.IR.TaintDefaultPolicy = true
	case "assert":
		checkAssert = true
		props, err := gatherProps(name, src, *propSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		if len(props) == 0 {
			fatalf("bf4: -check=assert found no properties (write // @assert(...) comments or pass -prop-spec)")
		}
		cfg.IR.Instrument = prop.Instrumenter(props)
	default:
		fatalf("bf4: -check must be empty, iflow or assert, got %q", *check)
	}
	if *propSpec != "" && !checkAssert {
		fatalf("bf4: -prop-spec requires -check=assert")
	}
	cfg.Slicing = !*noSlice
	cfg.IR.DontCare = !*noDontCare
	cfg.Infer.UseDontCare = !*noDontCare
	cfg.Infer.UseMultiTable = !*noMultiTable
	cfg.Workers = *jobs
	if *metricsOut != "" {
		cfg.Obs = obs.NewRegistry()
	}
	if *traceOut != "" {
		cfg.Trace = obs.StartSpan(name)
	}

	res, err := driver.Run(name, src, cfg)
	if err != nil {
		fatalf("bf4: %v", err)
	}
	cfg.Trace.End()

	fmt.Println(res.Summary())
	if res.Analysis != nil {
		st := res.Analysis.Stats
		fmt.Printf("analysis: discharged %d/%d checks statically (%d via header-validity alone); %d lint diagnostic(s)\n",
			st.Discharged, st.BugChecks, st.DischargedValidity, len(res.Analysis.Diags))
	}
	if checkAssert {
		violated, controlled, hold := 0, 0, 0
		for _, b := range res.InitialRep.Bugs {
			if b.Kind != ir.BugAssertFail || b.Node.Prop == nil {
				continue
			}
			info := b.Node.Prop
			switch {
			case !b.Reachable:
				hold++
				fmt.Printf("assert %s (%s): holds\n", info.Text, info.Origin)
			case res.InferResult.Controlled[b.Node]:
				controlled++
				fmt.Printf("assert %s (%s): violated under arbitrary entries; controlled by inferred annotations\n", info.Text, info.Origin)
			default:
				violated++
				fmt.Printf("assert %s (%s): VIOLATED (uncontrolled after inference)\n", info.Text, info.Origin)
			}
		}
		fmt.Printf("assert: %d hold, %d controlled after inference, %d violated\n", hold, controlled, violated)
	}
	if *verbose {
		for _, b := range res.InitialRep.Bugs {
			verdict := "unreachable"
			if b.Reachable {
				verdict = "REACHABLE"
				if res.InferResult.Controlled[b.Node] {
					verdict = "controlled"
				}
			}
			fmt.Printf("  %-11s %s\n", verdict, b.Description())
		}
	}
	if *showTrace {
		for _, b := range res.InitialRep.Bugs {
			if !b.Reachable {
				continue
			}
			tr, err := res.Initial.Counterexample(b)
			if err != nil {
				fmt.Printf("trace unavailable: %v\n", err)
				continue
			}
			fmt.Print(res.Initial.RenderTrace(b, tr))
		}
	}
	if len(res.Fixes.Keys) > 0 || len(res.Fixes.Special) > 0 || len(res.Fixes.Unfixable) > 0 {
		fmt.Print(res.Fixes.Describe())
	}
	for _, b := range res.Dataplane {
		fmt.Printf("dataplane bug (fix the P4 code): %s\n", b.Description())
	}

	finalPl := res.Fixed
	if finalPl == nil {
		finalPl = res.Initial
	}
	file := spec.Build(name, finalPl.IR, res.InitialRep, res.FinalInfer, res.Fixes.Special)
	if *render {
		fmt.Print(file.Render())
	}
	if *specOut != "" {
		data, err := file.Marshal()
		if err != nil {
			fatalf("marshal spec: %v", err)
		}
		if err := os.WriteFile(*specOut, data, 0o644); err != nil {
			fatalf("write spec: %v", err)
		}
		fmt.Printf("wrote %d assertions to %s\n", len(file.Assertions), *specOut)
	}
	if *fixedOut != "" {
		if res.FixedSource == "" {
			fmt.Println("no fixes needed; fixed program not written")
		} else if err := os.WriteFile(*fixedOut, []byte(res.FixedSource), 0o644); err != nil {
			fatalf("write fixed program: %v", err)
		} else {
			fmt.Printf("wrote fixed program to %s\n", *fixedOut)
		}
	}
	if *metricsOut != "" {
		data, err := cfg.Obs.JSON()
		if err != nil {
			fatalf("render metrics: %v", err)
		}
		writeOut(*metricsOut, append(data, '\n'))
	}
	if *traceOut != "" {
		writeOut(*traceOut, []byte(cfg.Trace.RenderString()))
	}
}

// writeOut writes data to a file, or to stdout when path is "-".
func writeOut(path string, data []byte) {
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

// lintMain implements `bf4 lint`: run only the static-analysis layer and
// report diagnostics, without any solver work. Exit status is 1 when an
// error-severity diagnostic (a definite static bug) is found, 2 on usage
// or compile failure, 0 otherwise.
func lintMain(args []string) {
	fs := flag.NewFlagSet("bf4 lint", flag.ExitOnError)
	var (
		corpusName  = fs.String("corpus", "", "lint a named corpus program")
		switchScale = fs.Int("switch-scale", 0, "lint a generated switch program at this scale")
		jsonOut     = fs.Bool("json", false, "emit diagnostics as JSON")
		taint       = fs.Bool("taint", false, "run the information-flow (taint) analysis instead of the lint passes: dataflow alarms at egress-visible sinks, each confirmed or dismissed by the solver")
		taintPolicy = fs.String("taint-policy", "default", "taint source policy: default (annotations + built-in sensitive fields) or annot (annotations only)")
		taintFamily = fs.String("taint-family", "", "lint a generated taint-exercise program: leaky or clean (sized by -switch-scale, placed by -taint-seed)")
		taintSeed   = fs.Int("taint-seed", 1, "placement seed for -taint-family generation (deterministic per seed)")
		propsRun    = fs.Bool("props", false, "check user @assert/@assume properties instead of the lint passes: each assert is discharged statically, confirmed with a packet witness, or dismissed as infeasible by the solver")
		specFile    = fs.String("spec", "", "with -props: read additional properties from this .props spec file")
		family      = fs.String("family", "", "lint a generated exercise program: props (a pipeline plus a .props spec covering all three verdict tiers; sized by -switch-scale, placed by -seed)")
		famSeed     = fs.Int("seed", 1, "placement seed for -family generation (deterministic per seed)")
		jobs        = fs.Int("j", 0, "confirmation solver workers (0 = 1; output identical for every value)")
		incrMode    = fs.String("incremental", "on", "persistent confirmation solver with retractable scopes: on|off (output identical either way)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bf4 lint [-json] [-taint] [-props] (program.p4 | -corpus name | -switch-scale n | -taint-family leaky|clean | -family props)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	name, src := "", ""
	var extraProps []*prop.Property
	switch {
	case *family != "":
		if *family != "props" {
			fatalf("bf4 lint: -family must be props, got %q", *family)
		}
		scale := *switchScale
		if scale <= 0 {
			scale = 4
		}
		name = fmt.Sprintf("propswitch@%d.p4", scale)
		genSrc, genProps := progs.GeneratePropSwitch(scale, *famSeed)
		src = genSrc
		if *specFile == "" {
			specName := fmt.Sprintf("propswitch@%d.props", scale)
			ps, err := prop.ParseSpecFile(specName, []byte(genProps))
			if err != nil {
				fatalf("bf4 lint: generated spec: %v", err)
			}
			extraProps = ps
		}
		*propsRun = true
	case *taintFamily != "":
		if *taintFamily != "leaky" && *taintFamily != "clean" {
			fatalf("bf4 lint: -taint-family must be leaky or clean, got %q", *taintFamily)
		}
		scale := *switchScale
		if scale <= 0 {
			scale = 4
		}
		name = fmt.Sprintf("taintswitch-%s@%d.p4", *taintFamily, scale)
		src = progs.GenerateTaintSwitch(scale, *taintSeed, *taintFamily == "leaky")
	case *corpusName != "":
		p := progs.Get(*corpusName)
		if p == nil {
			fatalf("unknown corpus program %q (use bf4 -list)", *corpusName)
		}
		name, src = p.Name+".p4", p.Source
	case *switchScale > 0:
		name, src = fmt.Sprintf("switch@%d.p4", *switchScale), progs.GenerateSwitch(*switchScale)
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		name, src = fs.Arg(0), string(data)
	default:
		fs.Usage()
		os.Exit(2)
	}

	if *propsRun {
		if *specFile != "" {
			data, err := os.ReadFile(*specFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(2)
			}
			ps, err := prop.ParseSpecFile(*specFile, data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(2)
			}
			extraProps = append(extraProps, ps...)
		}
		pcfg := driver.DefaultPropConfig()
		pcfg.Workers = *jobs
		switch *incrMode {
		case "on":
			pcfg.Incremental = true
		case "off":
			pcfg.Incremental = false
		default:
			fatalf("bf4 lint: -incremental must be on or off, got %q", *incrMode)
		}
		rep, err := driver.Props(name, src, extraProps, pcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		if *jsonOut {
			data, err := rep.RenderJSON(name)
			if err != nil {
				fatalf("render: %v", err)
			}
			fmt.Printf("%s\n", data)
		} else {
			fmt.Print(rep.RenderText(name))
		}
		for _, d := range rep.Diags {
			if d.Severity == analysis.SevError {
				os.Exit(1)
			}
		}
		return
	}

	if *specFile != "" {
		fatalf("bf4 lint: -spec requires -props")
	}

	if *taint {
		tcfg := driver.DefaultTaintConfig()
		tcfg.Policy = *taintPolicy
		tcfg.Workers = *jobs
		switch *incrMode {
		case "on":
			tcfg.Incremental = true
		case "off":
			tcfg.Incremental = false
		default:
			fatalf("bf4 lint: -incremental must be on or off, got %q", *incrMode)
		}
		rep, err := driver.Taint(name, src, tcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		if *jsonOut {
			data, err := rep.RenderJSON(name)
			if err != nil {
				fatalf("render: %v", err)
			}
			fmt.Printf("%s\n", data)
		} else {
			fmt.Print(rep.RenderText(name))
		}
		for _, d := range rep.Diags {
			if d.Severity == analysis.SevError {
				os.Exit(1)
			}
		}
		return
	}

	res, err := Lint(name, src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		data, err := analysis.RenderJSON(name, res.Diags)
		if err != nil {
			fatalf("render: %v", err)
		}
		fmt.Printf("%s\n", data)
	} else {
		fmt.Print(analysis.RenderText(name, res.Diags))
	}
	for _, d := range res.Diags {
		if d.Severity == analysis.SevError {
			os.Exit(1)
		}
	}
}

// Lint compiles src through the frontend and runs the static-analysis
// layer. Frontend errors come back with name: prefixed to every
// diagnostic line (file:line:col).
func Lint(name, src string) (*analysis.Result, error) {
	prog, err := parser.ParseFile(name, src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, parser.PrefixFile(name, err)
	}
	p, err := ir.Build(prog, info, ir.DefaultOptions())
	if err != nil {
		return nil, parser.PrefixFile(name, err)
	}
	return analysis.Run(p, prog), nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
