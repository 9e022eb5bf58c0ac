package core

import (
	"fmt"
	"sync"
	"time"

	"dlacep/internal/cep"
	"dlacep/internal/event"
	"dlacep/internal/metrics"
	"dlacep/internal/obs"
	"dlacep/internal/obs/trace"
	"dlacep/internal/pattern"
)

// Result captures one DLACEP run: the emitted match set and the cost
// decomposition between filtration and CEP extraction.
type Result struct {
	Matches []*cep.Match
	Keys    map[string]bool
	// KeysByPattern holds each pattern's own match-key set, collected
	// before the global Keys dedup (which suppresses a later engine's
	// repeat of an earlier engine's key, so per-pattern sets cannot be
	// reconstructed from Matches). Populated only when the pipeline ran
	// with TrackKeys — it is what per-pattern recall accounting diffs
	// against the exact baseline. Always populated by RunECEP*.
	KeysByPattern []map[string]bool

	EventsTotal   int
	EventsRelayed int

	FilterTime time.Duration
	CEPTime    time.Duration
	// WallTime is the run's total wall-clock time as recorded by the
	// pipeline around the whole evaluation. FilterTime+CEPTime used to
	// stand in for it, but that sum misses assembly, dedup/relay
	// bookkeeping, and the parallel merge — work that grows with
	// Config.Parallelism — so throughput computed from it over-reported on
	// parallel runs. Zero when the run went through the incremental
	// Processor (which cannot see the time between Push calls); Elapsed
	// then falls back to the stage sum.
	WallTime time.Duration

	CEPStats []cep.Stats // one per monitored pattern
}

// Elapsed is the total processing time: the pipeline-recorded wall clock
// when available, else the FilterTime+CEPTime decomposition.
func (r *Result) Elapsed() time.Duration {
	if r.WallTime > 0 {
		return r.WallTime
	}
	return r.FilterTime + r.CEPTime
}

// Throughput is events processed per second over the whole pipeline.
func (r *Result) Throughput() float64 {
	return metrics.Throughput(r.EventsTotal, r.Elapsed())
}

// FilterRatio is the fraction of events removed by the filter (the Ψ of
// Section 3.2, aggregated over types).
func (r *Result) FilterRatio() float64 {
	if r.EventsTotal == 0 {
		return 0
	}
	return 1 - float64(r.EventsRelayed)/float64(r.EventsTotal)
}

// Stage-level metric names published into a Pipeline's obs.Registry; the
// full naming scheme is documented in DESIGN.md §7.
const (
	metricFilterWindow = "pipeline.filter.window_ns" // histogram: per-window filter latency
	metricCEPBatch     = "pipeline.cep.batch_ns"     // histogram: per-relay-batch CEP latency
	metricEventsIn     = "pipeline.events.in"        // counter: non-blank events entering
	metricEventsRelay  = "pipeline.events.relayed"   // counter: events relayed to the engines
	metricEventsDrop   = "pipeline.events.dropped"   // counter: events definitively filtered out
	metricPendingDepth = "pipeline.pending.depth"    // gauge: marked events awaiting safe relay

	// Filter-decision counters: the per-window relay/drop verdict (a window
	// counts as relayed when the filter marked at least one of its non-blank
	// events). These are the live decision rates the degradation controller
	// (ROADMAP item 2) will consume next to quality.recall; by construction
	// relayed+dropped equals the number of marked windows.
	metricWindowsRelay = "filter.windows.relayed" // counter: windows with >=1 mark
	metricWindowsDrop  = "filter.windows.dropped" // counter: windows fully unmarked
)

// Exported window-verdict counter names: the sharded pipeline
// (internal/shard) makes the same per-window relay/drop decision and must
// publish under identical names so totals aggregate across paths.
const (
	MetricWindowsRelayed = metricWindowsRelay
	MetricWindowsDropped = metricWindowsDrop
)

// Pipeline wires the assembler, one event filter, and per-pattern CEP
// extractors (Figure 4).
type Pipeline struct {
	Cfg    Config
	Filter EventFilter
	// Obs, when non-nil, receives stage-level telemetry: the pipeline.*
	// metrics above, per-worker mark timings, and per-pattern cep.* spans
	// and instance gauges. Set it between NewPipeline and the first run;
	// nil (the default) keeps the hot path uninstrumented at zero cost.
	Obs *obs.Registry
	// Trace, when non-nil, samples per-window critical-path traces
	// (internal/obs/trace): 1-of-stride windows get a WindowTrace with
	// ingest/mark/relay/CEP stamps, published into the tracer's bounded
	// ring. Covers the incremental Processor path (and the sharded
	// pipeline, which reads the same field); the batch run() path is
	// untraced. Nil keeps the hot path at one pointer compare per event.
	Trace *trace.Tracer
	// TrackKeys enables per-pattern match-key collection into
	// Result.KeysByPattern (a map insert per pre-dedup match). The harness
	// turns it on for differential runs to compute per-pattern recall.
	TrackKeys bool
	// OnRelay, when non-nil, observes every relay batch (the ID-ordered
	// events leaving the pending queue) just before the CEP engines consume
	// it, on the Processor path. The adaptive differential tests use it to
	// capture the exact relay stream a static configuration produces.
	OnRelay func(batch []event.Event)
	// Board, when non-nil, is the degradation-level board an adapt
	// controller drives. NewAdaptiveProcessor consumes it, and the sharded
	// pipeline reads its maximum level to stamp window traces.
	Board  *LevelBoard
	pats   []*pattern.Pattern
	schema *event.Schema
}

// NewPipeline assembles a DLACEP pipeline. Filter is typically a trained
// *EventNetwork, or WindowToEvent{*WindowNetwork}; the oracle and type
// filters support ablations.
func NewPipeline(schema *event.Schema, pats []*pattern.Pattern, cfg Config, filter EventFilter) (*Pipeline, error) {
	w, err := windowSize(pats)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(w); err != nil {
		return nil, err
	}
	if filter == nil {
		return nil, fmt.Errorf("core: nil filter")
	}
	return &Pipeline{Cfg: cfg, Filter: filter, pats: pats, schema: schema}, nil
}

// Run evaluates a count-windowed stream: the assembler cuts it into marking
// windows, the filter marks events, duplicates are erased, and the relayed
// events feed one streaming CEP engine per pattern. Because relayed events
// keep their original IDs and the engines enforce the ID-distance
// constraint of Section 4.4, every emitted match is also an exact match
// (for negation-free patterns). Run is the batch convenience over
// NewProcessor's incremental interface; with Cfg.Parallelism > 1 it instead
// pre-cuts the stream into the Processor's window geometry and marks the
// windows concurrently, producing the same match-key set.
func (pl *Pipeline) Run(st *event.Stream) (*Result, error) {
	if pl.Cfg.Workers() > 1 {
		total := 0
		for i := range st.Events {
			if !st.Events[i].IsBlank() {
				total++
			}
		}
		return pl.run(assembleStreaming(st.Events, pl.Cfg.MarkSize, pl.Cfg.StepSize), total)
	}
	wall := metrics.StartStopwatch()
	p, err := pl.NewProcessor()
	if err != nil {
		return nil, err
	}
	for i := range st.Events {
		if _, err := p.Push(st.Events[i]); err != nil {
			return nil, err
		}
	}
	if _, err := p.Flush(); err != nil {
		return nil, err
	}
	res := p.Result()
	res.WallTime = wall.Elapsed()
	return res, nil
}

// RunWindows evaluates pre-cut (possibly blank-padded) windows, the entry
// point for simulated time-based evaluation (Figure 14). Windows must be
// ID-ordered and may overlap.
func (pl *Pipeline) RunWindows(windows [][]event.Event) (*Result, error) {
	total := 0
	seen := map[uint64]bool{}
	for _, w := range windows {
		for i := range w {
			if !w[i].IsBlank() && !seen[w[i].ID] {
				seen[w[i].ID] = true
				total++
			}
		}
	}
	return pl.run(windows, total)
}

func (pl *Pipeline) run(windows [][]event.Event, totalEvents int) (*Result, error) {
	wall := metrics.StartStopwatch()
	workers := pl.Cfg.Workers()
	engines := make([]*cep.Engine, len(pl.pats))
	for i, p := range pl.pats {
		en, err := cep.New(p, pl.schema)
		if err != nil {
			return nil, err
		}
		engines[i] = en
	}
	es := newEngineSet(engines, workers, pl.Obs)
	if pl.TrackKeys {
		es.trackKeys()
	}
	res := &Result{Keys: map[string]bool{}, EventsTotal: totalEvents}
	// Handles resolved once; on a nil registry they are nil and every
	// update below is a pointer-compare no-op.
	pl.Obs.Counter(metricEventsIn).Add(int64(totalEvents))
	relayedC := pl.Obs.Counter(metricEventsRelay)
	pendingG := pl.Obs.Gauge(metricPendingDepth)
	winRelC := pl.Obs.Counter(metricWindowsRelay)
	winDropC := pl.Obs.Counter(metricWindowsDrop)

	// Marking phase: every window's marks are independent of the relay, so
	// they are computed up front — concurrently when Parallelism allows —
	// and consumed by the sequential relay scan below in window order.
	sw := metrics.StartStopwatch()
	marks := markWindows(pl.Filter, windows, workers, pl.Obs)
	res.FilterTime = sw.Elapsed()
	for i := range windows {
		if len(marks[i]) != len(windows[i]) {
			return nil, fmt.Errorf("core: filter returned %d marks for %d events", len(marks[i]), len(windows[i]))
		}
	}

	// pending holds marked events not yet safe to relay: a later window may
	// still mark events with smaller IDs than this window's largest, so
	// events are flushed once every remaining window starts beyond them.
	var pending []event.Event
	relayed := map[uint64]bool{}

	flush := func(upTo uint64, all bool) {
		i := 0
		for i < len(pending) && (all || pending[i].ID < upTo) {
			i++
		}
		if i == 0 {
			return
		}
		batch := pending[:i]
		pending = pending[i:]
		sw := metrics.StartStopwatch()
		res.EventsRelayed += len(batch)
		relayedC.Add(int64(len(batch)))
		sp := obs.Start(pl.Obs, metricCEPBatch)
		res.Matches = appendMatches(res.Matches, es.Process(batch, res.Keys))
		sp.End()
		res.CEPTime += sw.Elapsed()
		pendingG.Set(float64(len(pending)))
	}

	for wi, w := range windows {
		if len(w) > 0 {
			if anyMarked(marks[wi], w) {
				winRelC.Inc()
			} else {
				winDropC.Inc()
			}
		}
		for i, m := range marks[wi] {
			if !m || w[i].IsBlank() || relayed[w[i].ID] {
				continue
			}
			relayed[w[i].ID] = true
			// insertion sort into pending (overlap regions are small)
			pending = append(pending, w[i])
			for j := len(pending) - 1; j > 0 && pending[j-1].ID > pending[j].ID; j-- {
				pending[j-1], pending[j] = pending[j], pending[j-1]
			}
		}
		// Everything below the next non-empty window's first event is now
		// safe: no remaining window can mark smaller IDs. Empty windows
		// impose no bound (and have no first event to index — skipping them
		// also fixes the RunWindows panic on blank/empty window lists).
		next := wi + 1
		for next < len(windows) && len(windows[next]) == 0 {
			next++
		}
		if next < len(windows) {
			flush(windows[next][0].ID, false)
		}
	}
	flush(0, true)
	sw = metrics.StartStopwatch()
	res.Matches = appendMatches(res.Matches, es.Flush(res.Keys))
	res.CEPStats = es.Stats()
	res.KeysByPattern = es.patKeys
	res.CEPTime += sw.Elapsed()
	pl.Obs.Counter(metricEventsDrop).Add(int64(totalEvents - res.EventsRelayed))
	res.WallTime = wall.Elapsed()
	return res, nil
}

// RunECEP evaluates the same patterns exactly (no filtering) and measures
// throughput, producing the baseline side of every "gain over ECEP"
// comparison. It runs single-threaded so measured baselines keep the
// paper's single-core semantics; see RunECEPParallel.
func RunECEP(schema *event.Schema, pats []*pattern.Pattern, st *event.Stream) (*Result, error) {
	return RunECEPParallel(schema, pats, st, 1)
}

// RunECEPParallel is RunECEP with per-pattern fan-out: up to workers
// patterns are evaluated concurrently, each on its own engine, and the
// match sets are merged in pattern order under the usual Keys dedup. The
// resulting Keys set and per-pattern CEPStats are identical to RunECEP's.
func RunECEPParallel(schema *event.Schema, pats []*pattern.Pattern, st *event.Stream, workers int) (*Result, error) {
	return RunECEPObserved(schema, pats, st, workers, nil)
}

// RunECEPObserved is RunECEPParallel publishing per-pattern telemetry into
// reg: one ecep.pattern.N.run_ns span per engine plus instance/match count
// gauges (the engine-internal cost statistics of Section 3.2). A nil reg
// disables publishing.
func RunECEPObserved(schema *event.Schema, pats []*pattern.Pattern, st *event.Stream, workers int, reg *obs.Registry) (*Result, error) {
	res := &Result{Keys: map[string]bool{}, EventsTotal: st.Len(), EventsRelayed: st.Len()}
	type patternRun struct {
		matches []*cep.Match
		stats   cep.Stats
		err     error
	}
	runs := make([]patternRun, len(pats))
	spanName := make([]string, len(pats))
	if reg != nil {
		for i := range pats {
			spanName[i] = fmt.Sprintf("ecep.pattern.%d.run_ns", i)
		}
	}
	runOne := func(i int, p *pattern.Pattern) {
		var sp obs.Span
		if reg != nil {
			sp = obs.Start(reg, spanName[i])
		}
		runs[i].matches, runs[i].stats, runs[i].err = cep.Run(p, st)
		sp.End()
	}
	sw := metrics.StartStopwatch()
	if workers > 1 && len(pats) > 1 {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, p := range pats {
			wg.Add(1)
			go func(i int, p *pattern.Pattern) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				runOne(i, p)
			}(i, p)
		}
		wg.Wait()
	} else {
		for i, p := range pats {
			runOne(i, p)
		}
	}
	res.KeysByPattern = make([]map[string]bool, len(pats))
	for i, r := range runs {
		if r.err != nil {
			return nil, r.err
		}
		// Per-pattern key sets are taken pre-dedup: the global Keys dedup
		// below erases cross-pattern repeats that per-pattern recall needs.
		res.KeysByPattern[i] = map[string]bool{}
		for _, m := range r.matches {
			k := m.Key()
			res.KeysByPattern[i][k] = true
			if !res.Keys[k] {
				res.Keys[k] = true
				res.Matches = append(res.Matches, m)
			}
		}
		res.CEPStats = append(res.CEPStats, r.stats)
		if reg != nil {
			r.stats.Publish(reg, fmt.Sprintf("ecep.pattern.%d", i))
		}
	}
	res.CEPTime = sw.Elapsed()
	res.WallTime = res.CEPTime
	return res, nil
}

// Compare scores an ACEP result against the exact baseline: recall (or F1
// for negation patterns), throughput gain, and the Section 3.1 objective.
type Comparison struct {
	Counts  metrics.Counts
	Recall  float64
	F1      float64
	Gain    float64
	Jaccard float64
}

// anyMarked reports the window's relay/drop verdict: true when the filter
// marked at least one non-blank event. A short marks slice (filter
// contract violation) is caught by the callers' length checks; here extra
// events simply read as unmarked.
func anyMarked(marks []bool, window []event.Event) bool {
	for i, m := range marks {
		if m && i < len(window) && !window[i].IsBlank() {
			return true
		}
	}
	return false
}

// Compare computes the standard evaluation bundle.
func Compare(acep, ecep *Result) Comparison {
	c := metrics.MatchSets(acep.Keys, ecep.Keys)
	return Comparison{
		Counts:  c,
		Recall:  c.Recall(),
		F1:      c.F1(),
		Gain:    metrics.Gain(acep.Throughput(), ecep.Throughput()),
		Jaccard: metrics.Jaccard(acep.Keys, ecep.Keys),
	}
}
