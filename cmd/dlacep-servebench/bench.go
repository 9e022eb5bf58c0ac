package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dlacep/internal/core"
)

// setupRepeats is how many times one run repeats set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupRepeats = 3

// minPasses is the least number of passes a run measures, however long
// each takes: every end-to-end metric is a median over passes.
const minPasses = 3

// lateLimitMS voids a paced pass: a generator that runs later than this at
// its 99th percentile is no longer sending the schedule it claims to.
const lateLimitMS = 1.0

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. Each bound
// is two to three times the widest run-to-run spread any workload showed
// over three agreement sets of ten seeds (README.md has the table), so a
// metric's own noise cannot trip it.
var endToEnd = []metricDef{
	{"throughput_eps", "events/s", "higher", 0.15},
	{"match_latency_p50_ms", "ms", "lower", 0.25},
	{"recall", "ratio", "higher", 0.20},
	{"cpu_s_per_mevent", "CPU-s/Mevent", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// env is where a run happens: the checkout, the scratch directory inside
// it, the built server, and the scale.
type env struct {
	root      string
	workDir   string
	serverBin string
	sc        scale
	log       io.Writer
}

// outcome is the result of one run of one workload: metric values plus the
// operation accounting the contract's result line reports.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks; empty means correct
	sha       string
	events    int // events per pass
	passes    int
	// latencySamples is the pooled latency sample count, latencyPct the
	// highest percentile it supports, and latencyP99MS the 99th percentile
	// (printed, not gated: see server.match_latency_p99_ms).
	latencySamples int
	latencyPct     float64
	latencyP99MS   float64
	lateP99MS      float64
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// setUp repeats prepare and returns the last result with the median time.
// Repetitions must agree on the model hash: training is bit-reproducible,
// and a run that is not would compare different filters across commits.
func setUp(s *spec, sc scale, seed int64, repeats int) (*prepared, float64, error) {
	var p *prepared
	var times []float64
	for i := 0; i < repeats; i++ {
		q, err := prepare(s, sc, seed)
		if err != nil {
			return nil, 0, err
		}
		if p != nil && q.sha != p.sha {
			return nil, 0, fmt.Errorf("%s seed %d: set-up is not reproducible, model hashes %s and %s", s.name, seed, p.sha, q.sha)
		}
		p = q
		times = append(times, q.took.Seconds())
	}
	return p, median(times), nil
}

// pass is one timed connection against a fresh server process.
type pass struct {
	cv    *conversation
	tally *tally
	usage usage
}

func runPass(e *env, p *prepared, modelPath string) (*pass, error) {
	c, err := startServer(e.serverBin, modelPath, p.spec.serveArgs())
	if err != nil {
		return nil, err
	}
	cv, derr := drive(c.addr, p, p.spec.rate)
	u, serr := c.stop()
	if derr != nil {
		return nil, derr
	}
	if serr != nil {
		return nil, serr
	}
	return &pass{cv: cv, tally: account(cv, p.exact), usage: u}, nil
}

// runEndToEnd measures one workload for about seconds: set-up (repeated),
// then timed passes against the child server, then the output checks.
func runEndToEnd(e *env, s *spec, seed int64, seconds float64) (*outcome, error) {
	p, setupS, err := setUp(s, e.sc, seed, setupRepeats)
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(e.workDir, fmt.Sprintf("%s.seed%d.model.json", s.name, seed))
	if err := os.WriteFile(modelPath, p.model, 0o644); err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}, sha: p.sha, events: len(p.events)}

	var thr, recall, cpu, rss, latency, late []float64
	var firstKeys map[string]bool
	start := time.Now()
	for o.passes < minPasses || time.Since(start).Seconds() < seconds {
		ps, err := runPass(e, p, modelPath)
		if err != nil {
			return nil, err
		}
		o.passes++
		o.attempted += ps.tally.attempted
		o.failed += ps.tally.failed
		for _, pr := range ps.tally.problems {
			o.problemf("pass %d: %s", o.passes, pr)
		}
		if !ps.usage.clean {
			o.problemf("pass %d: dlacep-serve did not run cleanly until interrupted", o.passes)
		}
		if ps.cv.summary == nil {
			continue // a broken pass has no timings; its failures are counted
		}
		if firstKeys == nil {
			firstKeys = ps.tally.keys
		}
		n := float64(ps.cv.planned)
		thr = append(thr, n/ps.cv.summaryAt.Seconds())
		recall = append(recall, float64(ps.tally.hits)/float64(len(p.exact)))
		cpu = append(cpu, ps.usage.cpu.Seconds()/n*1e6)
		rss = append(rss, float64(ps.usage.maxRSSKB)/1024)
		latency = append(latency, ps.tally.latencyMS...)
		if s.rate > 0 {
			late = append(late, lateP99MS(ps.cv))
		}
	}

	o.metrics["throughput_eps"] = median(thr)
	o.metrics["recall"] = median(recall)
	o.metrics["cpu_s_per_mevent"] = median(cpu)
	o.metrics["peak_rss_mb"] = median(rss)
	o.metrics["setup_s"] = setupS
	o.latencySamples = len(latency)
	o.latencyPct = supportedPercentile(len(latency))
	o.metrics["match_latency_p50_ms"] = percentile(latency, 50)
	o.latencyP99MS = percentile(latency, 99)
	if s.rate > 0 {
		// The median over passes: one disturbed pass does not void the run.
		o.lateP99MS = median(late)
		if e.sc.timing && o.lateP99MS >= lateLimitMS {
			o.problemf("load generator ran %.3f ms late at p99 (limit %.1f ms): the paced run is void", o.lateP99MS, lateLimitMS)
		}
	}
	if s.shards <= 1 && firstKeys != nil {
		// The sequential server runs core.Processor over the same filter and
		// the same IDs, so its match set — and therefore its recall — must
		// equal an in-process run's exactly.
		res, _, err := runProcessor(p)
		if err != nil {
			return nil, err
		}
		if !sameKeys(firstKeys, res.Keys) {
			o.problemf("served match set (%d keys) differs from the in-process core.Processor's (%d keys)", len(firstKeys), len(res.Keys))
		}
	}
	return o, nil
}

// runProcessor pushes the prepared stream through an in-process
// core.Processor built like the server builds one per connection. It
// returns the result and the wall time of the push loop and flush.
func runProcessor(p *prepared) (*core.Result, time.Duration, error) {
	filter, pats, schema, err := p.loadModel()
	if err != nil {
		return nil, 0, err
	}
	pl, err := core.NewPipeline(schema, pats, p.cfg, filter)
	if err != nil {
		return nil, 0, err
	}
	proc, err := pl.NewProcessor()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for i := range p.events {
		if _, err := proc.Push(p.events[i]); err != nil {
			return nil, 0, err
		}
	}
	if _, err := proc.Flush(); err != nil {
		return nil, 0, err
	}
	return proc.Result(), time.Since(start), nil
}

// lateP99MS is the 99th percentile of how late the paced generator wrote
// its chunks on one connection.
func lateP99MS(cv *conversation) float64 {
	late := make([]float64, len(cv.late))
	for i, l := range cv.late {
		late[i] = float64(l) / float64(time.Millisecond)
	}
	return percentile(late, 99)
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
