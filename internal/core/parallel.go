package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"dlacep/internal/cep"
	"dlacep/internal/event"
	"dlacep/internal/metrics"
	"dlacep/internal/obs"
)

// Parallel execution layer. The DLACEP pipeline decomposes into independent
// units along two axes: marking windows are filtered independently (the
// filter is a pure function of one window), and each monitored pattern has
// its own CEP engine consuming the same relayed stream. Both axes
// parallelize without changing the emitted match-key set:
//
//   - window marking fans out over a bounded worker pool where each worker
//     owns a filter clone (BiLSTM forward passes carry scratch state, so
//     workers cannot share one network). Each clone also owns its own
//     nn.Scratch inference arena — CloneFilter resets it, first use creates
//     it — so with P workers there are exactly P arenas, each confined to
//     one goroutine, and steady-state marking allocates nothing per window.
//     Marks are written back into window-indexed slots, keeping the
//     downstream dedup/relay scan in window order and therefore
//     deterministic;
//   - relayed batches fan out one goroutine per engine; every engine still
//     sees events in strictly increasing ID order, and the per-batch merge
//     dedups under the pipeline's Keys set in engine index order, then
//     sorts the batch's new matches by match key so output ordering is
//     reproducible regardless of goroutine scheduling.
//
// Config.Parallelism bounds the worker pool; 0 or 1 selects the original
// sequential paths.

// CloneableFilter is an EventFilter that can produce independent clones for
// concurrent marking. Clones share read-only trained state (weights,
// normalization statistics) but own any per-inference scratch buffers.
// Filters that are already safe for concurrent use return themselves.
// CloneFilter may return nil when cloning is unavailable (e.g. an adapter
// over a non-cloneable inner filter); marking then stays sequential.
type CloneableFilter interface {
	EventFilter
	CloneFilter() EventFilter
}

// CloneableWindowFilter is the WindowFilter analogue, used by WindowToEvent
// to clone through the adapter.
type CloneableWindowFilter interface {
	WindowFilter
	CloneWindowFilter() WindowFilter
}

// markWindows runs the filter over every window and returns the marks in
// window order. With workers > 1 and a cloneable filter, windows are marked
// concurrently by a bounded pool of filter clones; otherwise marking is
// sequential. Empty windows get nil marks without touching the filter (a
// BiLSTM or CRF forward pass over zero timesteps is undefined).
//
// With a non-nil reg each marked window's latency is recorded twice: into
// the shared pipeline.filter.window_ns histogram and into the marking
// worker's own pipeline.worker.N.mark_ns histogram, so a straggling or
// cache-unlucky clone is distinguishable from uniform load.
func markWindows(filter EventFilter, windows [][]event.Event, workers int, reg *obs.Registry) [][]bool {
	marks := make([][]bool, len(windows))
	windowH := reg.Histogram(metricFilterWindow) // nil (no-op) on a nil registry
	markOne := func(f EventFilter, i int, workerH *obs.Histogram) {
		if windowH == nil {
			marks[i] = f.Mark(windows[i])
			return
		}
		sw := metrics.StartStopwatch()
		marks[i] = f.Mark(windows[i])
		d := sw.Elapsed()
		windowH.Observe(d)
		workerH.Observe(d)
	}
	if workers > 1 && len(windows) > 1 {
		if cf, ok := filter.(CloneableFilter); ok {
			if workers > len(windows) {
				workers = len(windows)
			}
			// Worker 0 reuses the pipeline's own filter; the rest clone. A
			// nil clone means the filter cannot actually be cloned (adapter
			// over a non-cloneable inner filter) — fall through to sequential.
			filters := []EventFilter{filter}
			for len(filters) < workers {
				c := cf.CloneFilter()
				if c == nil {
					break
				}
				filters = append(filters, c)
			}
			if len(filters) > 1 {
				jobs := make(chan int)
				var wg sync.WaitGroup
				var panicOnce sync.Once
				var panicked any
				for wi, f := range filters {
					wg.Add(1)
					workerH := workerHistogram(reg, wi)
					go func(f EventFilter, workerH *obs.Histogram) {
						defer wg.Done()
						defer func() {
							if r := recover(); r != nil {
								panicOnce.Do(func() { panicked = r })
								for range jobs { // drain so the feeder never blocks
								}
							}
						}()
						for i := range jobs {
							if len(windows[i]) > 0 {
								markOne(f, i, workerH)
							}
						}
					}(f, workerH)
				}
				for i := range windows {
					jobs <- i
				}
				close(jobs)
				wg.Wait()
				if panicked != nil {
					//dlacep:ignore libpanic re-raises a worker goroutine's panic on the caller; not a new failure mode
					panic(panicked)
				}
				return marks
			}
		}
	}
	workerH := workerHistogram(reg, 0)
	for i, w := range windows {
		if len(w) > 0 {
			markOne(filter, i, workerH)
		}
	}
	return marks
}

// workerHistogram resolves one marking worker's timing histogram (nil —
// and therefore no-op — on a nil registry).
func workerHistogram(reg *obs.Registry, worker int) *obs.Histogram {
	if reg == nil {
		return nil
	}
	return reg.Histogram(fmt.Sprintf("pipeline.worker.%d.mark_ns", worker))
}

// engineSet wraps the pipeline's per-pattern CEP engines with a batch
// dispatcher that optionally fans out one goroutine per engine. With a
// non-nil registry every batch is timed per pattern (cep.pattern.N.batch_ns)
// and each engine's cost counters are re-published as cep.pattern.N.*
// gauges after the batch, so per-pattern load is visible mid-stream.
type engineSet struct {
	engines []*cep.Engine
	par     bool
	reg     *obs.Registry
	prefix  []string // "cep.pattern.N", resolved once; nil when reg is nil
	// patKeys, when trackKeys enabled it, accumulates each engine's own
	// match keys before the cross-engine dedup in mergeMatches (which
	// erases a later pattern's repeat of an earlier pattern's key). Slot i
	// is written only by the goroutine running engine i, so parallel batch
	// fan-out stays race-free.
	patKeys []map[string]bool
}

func newEngineSet(engines []*cep.Engine, workers int, reg *obs.Registry) *engineSet {
	es := &engineSet{engines: engines, par: workers > 1 && len(engines) > 1, reg: reg}
	if reg != nil {
		es.prefix = make([]string, len(engines))
		for i := range engines {
			es.prefix[i] = fmt.Sprintf("cep.pattern.%d", i)
		}
	}
	return es
}

// trackKeys switches on per-pattern match-key collection (see patKeys).
// Call before the first batch.
func (es *engineSet) trackKeys() {
	es.patKeys = make([]map[string]bool, len(es.engines))
	for i := range es.patKeys {
		es.patKeys[i] = map[string]bool{}
	}
}

// instanceCount sums the engines' created-instance counters (C_ECEP).
// Single-goroutine like Stats: call between batches, not during one.
func (es *engineSet) instanceCount() int64 {
	var n int64
	for _, en := range es.engines {
		n += en.InstanceCount()
	}
	return n
}

// runOne feeds fn's output for engine i, timed and published when the set
// is observed, and keys each match. Called from whichever goroutine owns
// engine i.
func (es *engineSet) runOne(i int, fn func(*cep.Engine) []*cep.Match) []keyedMatch {
	en := es.engines[i]
	var out []*cep.Match
	if es.reg == nil {
		out = fn(en)
	} else {
		sp := obs.Start(es.reg, es.prefix[i]+".batch_ns")
		out = fn(en)
		sp.End()
		en.Publish(es.reg, es.prefix[i])
	}
	ks := keyed(out)
	if es.patKeys != nil {
		for _, k := range ks {
			es.patKeys[i][k.key] = true
		}
	}
	return ks
}

// Process feeds the batch (ID-ordered) to every engine and returns the
// matches not yet present in seen, in deterministic order: deduped by
// engine index, then sorted by match key. seen is updated in place.
func (es *engineSet) Process(batch []event.Event, seen map[string]bool) []keyedMatch {
	perEngine := make([][]keyedMatch, len(es.engines))
	run := func(en *cep.Engine) []*cep.Match { return runBatch(en, batch) }
	if es.par {
		var wg sync.WaitGroup
		for i := range es.engines {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				perEngine[i] = es.runOne(i, run)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range es.engines {
			perEngine[i] = es.runOne(i, run)
		}
	}
	return mergeMatches(perEngine, seen)
}

// Flush closes every engine and returns the remaining new matches in the
// same deterministic order as Process.
func (es *engineSet) Flush(seen map[string]bool) []keyedMatch {
	perEngine := make([][]keyedMatch, len(es.engines))
	run := func(en *cep.Engine) []*cep.Match { return en.Flush() }
	if es.par {
		var wg sync.WaitGroup
		for i := range es.engines {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				perEngine[i] = es.runOne(i, run)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range es.engines {
			perEngine[i] = es.runOne(i, run)
		}
	}
	return mergeMatches(perEngine, seen)
}

// Stats returns the per-engine cost counters in pattern order.
func (es *engineSet) Stats() []cep.Stats {
	out := make([]cep.Stats, len(es.engines))
	for i, en := range es.engines {
		out[i] = en.Stats()
	}
	return out
}

func runBatch(en *cep.Engine, batch []event.Event) []*cep.Match {
	var out []*cep.Match
	for _, ev := range batch {
		out = append(out, en.Process(ev)...)
	}
	return out
}

// keyedMatch is a match with its Key, computed once where the engine emits
// the match and carried through dedup, ordering and collection: a Key call
// allocates an ID slice and a string.
type keyedMatch struct {
	key string
	m   *cep.Match
}

func keyed(ms []*cep.Match) []keyedMatch {
	if len(ms) == 0 {
		return nil
	}
	out := make([]keyedMatch, len(ms))
	for i, m := range ms {
		out[i] = keyedMatch{m.Key(), m}
	}
	return out
}

// appendMatches appends the matches of ks to dst.
func appendMatches(dst []*cep.Match, ks []keyedMatch) []*cep.Match {
	for _, k := range ks {
		dst = append(dst, k.m)
	}
	return dst
}

// mergeMatches dedups the per-engine match lists against seen (updating it)
// and returns the new matches sorted by key.
func mergeMatches(perEngine [][]keyedMatch, seen map[string]bool) []keyedMatch {
	var out []keyedMatch
	for _, ks := range perEngine {
		for _, k := range ks {
			if !seen[k.key] {
				seen[k.key] = true
				out = append(out, k)
			}
		}
	}
	slices.SortStableFunc(out, func(a, b keyedMatch) int { return strings.Compare(a.key, b.key) })
	return out
}

// assembleStreaming cuts a stream into exactly the marking windows the
// incremental Processor produces: full MarkSize windows at StepSize stride,
// plus the trailing partial buffer (the events after the last stride). This
// differs from Assemble's tail handling — Assemble re-cuts the last full
// MarkSize events — and matters for parallel batch runs: Pipeline.Run must
// present identical windows to the filter at every parallelism level, or a
// context-sensitive filter could mark tail events differently.
func assembleStreaming(events []event.Event, markSize, stepSize int) [][]event.Event {
	n := len(events)
	var out [][]event.Event
	lo := 0
	for lo+markSize <= n {
		out = append(out, events[lo:lo+markSize])
		lo += stepSize
	}
	if lo < n {
		out = append(out, events[lo:n])
	}
	return out
}
