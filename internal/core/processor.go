package core

import (
	"fmt"

	"dlacep/internal/cep"
	"dlacep/internal/event"
	"dlacep/internal/metrics"
	"dlacep/internal/obs"
	"dlacep/internal/obs/trace"
)

// Processor is the incremental form of the pipeline: events are pushed one
// at a time, marking windows are assembled on the fly, and matches stream
// out as soon as their window geometry allows. It is what a deployed DLACEP
// instance runs; Pipeline.Run is a convenience wrapper over it.
//
// Events must arrive in strictly increasing ID order. Not safe for
// concurrent use.
type Processor struct {
	pl  *Pipeline
	es  *engineSet
	res *Result

	buf     []event.Event // events awaiting their marking window
	pending []event.Event // marked events not yet safely relayable
	relayed map[uint64]bool
	seen    map[string]bool
	flushed bool

	// Telemetry handles resolved once from pl.Obs; nil (no-op) when the
	// pipeline is unobserved, so the per-event path stays uninstrumented.
	inC      *obs.Counter
	relayedC *obs.Counter
	droppedC *obs.Counter
	pendingG *obs.Gauge
	winRelC  *obs.Counter
	winDropC *obs.Counter

	// tracer samples per-window critical-path traces (nil = untraced).
	// curTr is the in-flight sample: acquired when its event is pushed,
	// stamped through mark/relay/CEP, published when the window that
	// absorbed the event completes. At most one window is in flight at a
	// time here (unlike the sharded worker's K-batch), so one slot suffices;
	// a second sample landing before the first publishes is abandoned.
	tracer *trace.Tracer
	curTr  *trace.WindowTrace
}

// NewProcessor creates an incremental processor for the pipeline.
func (pl *Pipeline) NewProcessor() (*Processor, error) {
	p := &Processor{
		pl:       pl,
		res:      &Result{Keys: map[string]bool{}},
		relayed:  map[uint64]bool{},
		seen:     map[string]bool{},
		inC:      pl.Obs.Counter(metricEventsIn),
		relayedC: pl.Obs.Counter(metricEventsRelay),
		droppedC: pl.Obs.Counter(metricEventsDrop),
		pendingG: pl.Obs.Gauge(metricPendingDepth),
		winRelC:  pl.Obs.Counter(metricWindowsRelay),
		winDropC: pl.Obs.Counter(metricWindowsDrop),
		tracer:   pl.Trace,
	}
	es, err := pl.newEngines()
	if err != nil {
		return nil, err
	}
	p.es = es
	return p, nil
}

// Push feeds the next event and returns any matches completed by it.
func (p *Processor) Push(ev event.Event) ([]*cep.Match, error) {
	if p.flushed {
		return nil, fmt.Errorf("core: Push after Flush")
	}
	if !ev.IsBlank() {
		p.res.EventsTotal++
		p.inC.Inc()
	}
	if tr := p.tracer.Sample(); tr != nil {
		if p.curTr == nil {
			p.curTr = tr
		} else {
			p.tracer.Abandon(tr)
		}
	}
	p.buf = append(p.buf, ev)
	if len(p.buf) < p.pl.Cfg.MarkSize {
		return nil, nil
	}
	if err := p.markWindow(p.buf); err != nil {
		return nil, err
	}
	// The StepSize events about to leave the buffer have now been seen by
	// every marking window that will ever cover them; any of them still
	// unmarked is definitively dropped. (Marked ones still carry their
	// relayed entry: deletion happens only below the relay watermark,
	// which trails the buffer head.)
	if p.droppedC != nil || p.curTr != nil {
		for _, old := range p.buf[:p.pl.Cfg.StepSize] {
			if !old.IsBlank() && !p.relayed[old.ID] {
				p.droppedC.Inc()
				if p.curTr != nil {
					p.curTr.Dropped++
				}
			}
		}
	}
	// Advance by StepSize, retaining the overlap for the next window.
	keep := len(p.buf) - p.pl.Cfg.StepSize
	copy(p.buf, p.buf[p.pl.Cfg.StepSize:])
	p.buf = p.buf[:keep]
	// Everything below the next window's first event can now be relayed:
	// no future marking window will cover smaller IDs.
	var upTo uint64
	if len(p.buf) > 0 {
		upTo = p.buf[0].ID
	} else {
		upTo = ev.ID + 1
	}
	out := p.relayBelow(nil, upTo)
	// A sample whose window just completed has all its stamps; publish and
	// recycle. (MarkEnd set means markWindow saw it in a full window.)
	if p.curTr != nil && p.curTr.MarkEndNS != 0 {
		p.tracer.Publish(p.curTr)
		p.curTr = nil
	}
	return out, nil
}

// Flush marks the trailing partial window, drains everything, and closes
// the engines. Call once at end of stream.
func (p *Processor) Flush() ([]*cep.Match, error) {
	if p.flushed {
		return nil, fmt.Errorf("core: double Flush")
	}
	p.flushed = true
	var out []*cep.Match
	if len(p.buf) > 0 {
		if err := p.markWindow(p.buf); err != nil {
			return nil, err
		}
	}
	// End of stream: whatever the trailing buffer left unmarked is dropped.
	if p.droppedC != nil || p.curTr != nil {
		for _, old := range p.buf {
			if !old.IsBlank() && !p.relayed[old.ID] {
				p.droppedC.Inc()
				if p.curTr != nil {
					p.curTr.Dropped++
				}
			}
		}
	}
	p.buf = nil
	// A sample still in flight belongs to the trailing partial window; it
	// rides the final drain below. One that never saw a window (possible
	// only if its event arrived after the last full window and the buffer
	// is empty, i.e. never) is abandoned rather than published half-blank.
	tr := p.curTr
	p.curTr = nil
	if tr != nil && tr.MarkEndNS == 0 {
		p.tracer.Abandon(tr)
		tr = nil
	}
	// relay everything left
	sw := metrics.StartStopwatch()
	var inst0 int64
	if tr != nil {
		tr.CEPStartNS = p.tracer.Now()
		inst0 = p.es.instanceCount()
	}
	if len(p.pending) > 0 {
		if p.pl.OnRelay != nil {
			p.pl.OnRelay(p.pending)
		}
		p.res.EventsRelayed += len(p.pending)
		p.relayedC.Add(int64(len(p.pending)))
		out = p.collect(out, p.es.Process(p.pending, p.seen))
	}
	p.pending = nil
	p.pendingG.Set(0)
	out = p.collect(out, p.es.Flush(p.seen))
	if tr != nil {
		tr.CEPEndNS = p.tracer.Now()
		tr.Matches += len(out)
		tr.CEPInstances += p.es.instanceCount() - inst0
		p.tracer.Publish(tr)
	}
	p.res.CEPStats = p.es.Stats()
	p.res.KeysByPattern = p.es.patKeys
	p.res.CEPTime += sw.Elapsed()
	return out, nil
}

// Result returns the accumulated statistics; valid after Flush.
func (p *Processor) Result() *Result { return p.res }

// markWindow runs the filter over one marking window and queues the marked
// events in ID order. A filter violating the one-mark-per-event contract is
// reported as an error (user-pluggable filters make this reachable).
//
// The Processor is single-goroutine by contract, so the filter — and the
// nn.Scratch inference arena a network filter owns — sees one window at a
// time; in steady state the deep filters' forward pass is allocation-free
// here.
//
//dlacep:hotpath
func (p *Processor) markWindow(window []event.Event) error {
	tr := p.curTr
	if tr != nil {
		tr.WindowID = window[0].ID
		tr.Events = len(window)
		tr.MarkStartNS = p.tracer.Now()
	}
	sw := metrics.StartStopwatch()
	marks := p.pl.Filter.Mark(window)
	elapsed := sw.Elapsed()
	if tr != nil {
		tr.MarkEndNS = p.tracer.Now()
	}
	p.res.FilterTime += elapsed
	p.pl.Obs.Histogram(metricFilterWindow).Observe(elapsed)
	if len(marks) != len(window) {
		//dlacep:coldpath filter-contract violation is terminal, not hot
		return fmt.Errorf("core: filter returned %d marks for %d events", len(marks), len(window))
	}
	if anyMarked(marks, window) {
		p.winRelC.Inc()
	} else {
		p.winDropC.Inc()
	}
	for i, m := range marks {
		if !m || window[i].IsBlank() || p.relayed[window[i].ID] {
			continue
		}
		p.relayed[window[i].ID] = true
		if tr != nil {
			tr.Relayed++
		}
		p.pending = append(p.pending, window[i])
		for j := len(p.pending) - 1; j > 0 && p.pending[j-1].ID > p.pending[j].ID; j-- {
			p.pending[j-1], p.pending[j] = p.pending[j], p.pending[j-1]
		}
	}
	p.pendingG.Set(float64(len(p.pending)))
	return nil
}

func (p *Processor) relayBelow(out []*cep.Match, upTo uint64) []*cep.Match {
	i := 0
	for i < len(p.pending) && p.pending[i].ID < upTo {
		i++
	}
	if i == 0 {
		return out
	}
	batch := p.pending[:i]
	p.pending = p.pending[i:]
	if p.pl.OnRelay != nil {
		p.pl.OnRelay(batch)
	}
	sw := metrics.StartStopwatch()
	p.res.EventsRelayed += len(batch)
	p.relayedC.Add(int64(len(batch)))
	for _, ev := range batch {
		delete(p.relayed, ev.ID) // no future window can re-mark below upTo
	}
	// A trace whose window was just marked rides the relay batch its window
	// triggered: stamp the CEP interval and attribute the batch's matches
	// and instance growth (C_ECEP) to it.
	tr := p.curTr
	if tr != nil && tr.MarkEndNS == 0 {
		tr = nil
	}
	var inst0 int64
	if tr != nil {
		tr.CEPStartNS = p.tracer.Now()
		inst0 = p.es.instanceCount()
	}
	sp := obs.Start(p.pl.Obs, metricCEPBatch)
	ms := p.es.Process(batch, p.seen)
	sp.End()
	if tr != nil {
		tr.CEPEndNS = p.tracer.Now()
		tr.Matches += len(ms)
		tr.CEPInstances += p.es.instanceCount() - inst0
	}
	out = p.collect(out, ms)
	p.res.CEPTime += sw.Elapsed()
	p.pendingG.Set(float64(len(p.pending)))
	return out
}

// collect records engineSet output (already deduped against p.seen) in the
// accumulated result and the caller's return slice.
func (p *Processor) collect(out []*cep.Match, ks []keyedMatch) []*cep.Match {
	for _, k := range ks {
		p.res.Keys[k.key] = true
		p.res.Matches = append(p.res.Matches, k.m)
		out = append(out, k.m)
	}
	return out
}
