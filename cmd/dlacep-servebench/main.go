// Command dlacep-servebench is the repository's benchmark: it measures a
// client talking to dlacep-serve over its socket, end to end, and then the
// same work layer by layer.
//
// One command runs everything — builds dlacep-serve, generates streams,
// trains the filters, computes the exact reference, runs the four
// workloads, prints every metric with its unit and checks the outputs:
//
//	go run ./cmd/dlacep-servebench [-runs 10] [-out result.json]
//
// One workload alone, as the benchmark contract's driver runs it (the last
// line of output is the result object; -trace 1 runs the per-layer pass):
//
//	go run ./cmd/dlacep-servebench -workload cep-bound.seq -seed 7 -seconds 10 -trace 0
//
// Two result files compared against the bounds:
//
//	go run ./cmd/dlacep-servebench -agree a.json b.json
//
// README.md in this directory defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dlacep/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlacep-servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload alone and end with the contract's result line (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: selects which events of the workload's stream are served")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traced := fs.Int("trace", 0, "with -workload: 0 measures end to end over the socket, 1 runs the in-process per-layer pass")
	runs := fs.Int("runs", 1, "without -workload: end-to-end runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "without -workload: write every run's values and the environment to this file")
	agreeMode := fs.Bool("agree", false, "compare two result files (-agree a.json b.json) against the bounds")
	smoke := fs.Bool("smoke", false, "tiny streams and networks: exercises every code path in seconds, measures nothing")
	work := fs.String("work", "", "directory for the built server, model files and span files (default: .bench_build/servebench in the checkout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dlacep-servebench:", err)
		return 1
	}
	if *agreeMode {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-agree takes two result files"))
		}
		ok, err := agree(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	var only *spec
	if *workload != "" {
		if only = findWorkload(*workload); only == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
	}
	e, err := newEnv(*work, *smoke, stdout)
	if err != nil {
		return fail(err)
	}
	if only != nil {
		ok, err := runContract(e, only, *seed, *seconds, *traced == 1, stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	res := &resultFile{Env: currentEnvironment(e.root)}
	res.Env.Seed, res.Env.Runs, res.Env.Seconds, res.Env.Smoke = *seed, *runs, *seconds, *smoke
	allCorrect := true
	for _, s := range workloads() {
		fmt.Fprintf(stdout, "workload %s\n  why: %s\n", s.name, s.why)
		wr := workloadResult{Name: s.name, EndToEnd: map[string]metricSummary{}}
		values := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			o, err := runEndToEnd(e, s, *seed+int64(i), *seconds)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, " run %d of %d, seed %d\n", i+1, *runs, *seed+int64(i))
			describe(stdout, o, endToEnd)
			wr.Events = o.events
			wr.Seeds = append(wr.Seeds, *seed+int64(i))
			wr.ModelSHA256 = append(wr.ModelSHA256, o.sha)
			wr.Attempted += o.attempted
			wr.Failed += o.failed
			wr.Problems = append(wr.Problems, o.problems...)
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], o.metrics[d.name])
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = summarize(d, values[d.name])
		}
		fmt.Fprintf(stdout, " traced run, seed %d\n", *seed)
		o, err := runTraced(e, s, *seed)
		if err != nil {
			return fail(err)
		}
		describe(stdout, o, perLayer)
		wr.PerLayer = o.metrics
		wr.Attempted += o.attempted
		wr.Failed += o.failed
		wr.Problems = append(wr.Problems, o.problems...)
		if *runs > 1 {
			fmt.Fprintf(stdout, " over %d runs: median [q1, q3] spread\n", *runs)
			for _, d := range endToEnd {
				m := wr.EndToEnd[d.name]
				fmt.Fprintf(stdout, "  %-34s %14.6g [%.6g, %.6g] %5.1f%% %s\n", d.name, m.Median, m.Q1, m.Q3, 100*m.Spread, d.unit)
			}
		}
		if wr.Failed > 0 || len(wr.Problems) > 0 {
			allCorrect = false
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "results written to %s\n", *out)
	}
	if !allCorrect {
		fmt.Fprintln(stdout, "FAILED: some output checks did not hold (see the problems above)")
		return 1
	}
	fmt.Fprintln(stdout, "all output checks hold")
	return 0
}

// runContract is the benchmark contract's mode: one run of one workload,
// end to end or traced, ending with the result object on the last line. It
// reports whether every output check held.
func runContract(e *env, s *spec, seed int64, seconds float64, traced bool, stdout io.Writer) (bool, error) {
	fmt.Fprintf(stdout, "workload %s\n  why: %s\n", s.name, s.why)
	var o *outcome
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		o, err = runTraced(e, s, seed)
	} else {
		o, err = runEndToEnd(e, s, seed, seconds)
	}
	if err != nil {
		return false, err
	}
	describe(stdout, o, defs)
	line := resultLine{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return o.correct(), nil
}

// describe prints one run: its metrics by name and unit, the operation
// accounting, and every failed check.
func describe(w io.Writer, o *outcome, defs []metricDef) {
	printMetrics(w, defs, o.metrics)
	fmt.Fprintf(w, "  model sha256 %s, %d events per pass, %d passes\n", o.sha, o.events, o.passes)
	if o.latencySamples > 0 {
		fmt.Fprintf(w, "  %d latency samples support the %gth percentile; p99 %.4g ms (not gated); generator late p99 %.3f ms\n",
			o.latencySamples, o.latencyPct, o.latencyP99MS, o.lateP99MS)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// newEnv locates the checkout, makes the scratch directory (inside the
// checkout unless work names another) and builds the server there.
func newEnv(work string, smoke bool, log io.Writer) (*env, error) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		return nil, fmt.Errorf("run from inside the checkout: %w", err)
	}
	if work == "" {
		work = filepath.Join(root, ".bench_build", "servebench")
	}
	e := &env{root: root, workDir: work, sc: fullScale, log: log}
	if smoke {
		e.sc = smokeScale
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	bin, err := buildServer(root, e.workDir)
	if err != nil {
		return nil, err
	}
	e.serverBin = bin
	fmt.Fprintf(log, "built dlacep-serve in %.2f s (not part of setup_s: it measures the toolchain's cache)\n", time.Since(start).Seconds())
	return e, nil
}
