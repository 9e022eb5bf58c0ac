package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"dlacep/internal/cep"
	"dlacep/internal/event"
	"dlacep/internal/metrics"
	"dlacep/internal/obs"
	"dlacep/internal/obs/trace"
)

// Degradation ladder levels. Each monitored pattern sits on one rung,
// trading recall for cost (Section 3.1's objective, operationalized):
// exact evaluation sees the full stream, the filtered level sees only
// DL-relayed events, and the shedding level additionally drops a tunable
// fraction of the relays before its engine.
type Level int32

const (
	// LevelExact feeds the pattern's engine every stream event, bypassing
	// the filter — recall 1, full C_ECEP cost.
	LevelExact Level = iota
	// LevelFiltered feeds the engine only filter-relayed events — the
	// standard DLACEP configuration.
	LevelFiltered
	// LevelShed interposes a controller-tuned shedder between the relay
	// stream and the engine — recall spent for bounded cost under overload.
	LevelShed

	numLevels
)

// String names the level for logs and the /controller endpoint.
func (l Level) String() string {
	switch l {
	case LevelExact:
		return "exact"
	case LevelFiltered:
		return "filtered"
	case LevelShed:
		return "shed"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// LevelBoard is the shared state between an adapt controller (writer) and
// the serving path (reader): one degradation level and one shed ratio per
// monitored pattern, all atomics, so the control loop retunes a live
// pipeline without locks and without draining in-flight windows.
type LevelBoard struct {
	levels []atomic.Int32
	ratios []atomic.Uint64 // float64 bits
}

// NewLevelBoard builds a board for n patterns, all starting at
// LevelFiltered (the standard DLACEP configuration) with shed ratio 0.
func NewLevelBoard(n int) *LevelBoard {
	b := &LevelBoard{levels: make([]atomic.Int32, n), ratios: make([]atomic.Uint64, n)}
	b.Pin(LevelFiltered)
	return b
}

// Patterns returns the board's pattern count.
func (b *LevelBoard) Patterns() int { return len(b.levels) }

// Level returns pattern i's current degradation level.
func (b *LevelBoard) Level(i int) Level { return Level(b.levels[i].Load()) }

// SetLevel moves pattern i to the given level, clamped onto the ladder.
func (b *LevelBoard) SetLevel(i int, l Level) {
	if l < LevelExact {
		l = LevelExact
	}
	if l >= numLevels {
		l = numLevels - 1
	}
	b.levels[i].Store(int32(l))
}

// ShedRatio returns pattern i's current target shed ratio.
func (b *LevelBoard) ShedRatio(i int) float64 {
	return math.Float64frombits(b.ratios[i].Load())
}

// SetShedRatio sets pattern i's target shed ratio, clamped to [0, 1].
func (b *LevelBoard) SetShedRatio(i int, r float64) {
	switch {
	case r < 0 || math.IsNaN(r):
		r = 0
	case r > 1:
		r = 1
	}
	b.ratios[i].Store(math.Float64bits(r))
}

// Pin sets every pattern to one level (shed ratios are left alone) — the
// static configurations the differential suite compares against.
func (b *LevelBoard) Pin(l Level) {
	for i := range b.levels {
		b.SetLevel(i, l)
	}
}

// MaxLevel returns the highest level any pattern currently sits on — the
// board's overall degradation state for healthz and trace stamping.
func (b *LevelBoard) MaxLevel() Level {
	max := LevelExact
	for i := range b.levels {
		if l := b.Level(i); l > max {
			max = l
		}
	}
	return max
}

// Levels returns a snapshot copy of every pattern's level.
func (b *LevelBoard) Levels() []Level {
	out := make([]Level, len(b.levels))
	for i := range out {
		out[i] = b.Level(i)
	}
	return out
}

// ShedRatios returns a snapshot copy of every pattern's shed ratio.
func (b *LevelBoard) ShedRatios() []float64 {
	out := make([]float64, len(b.ratios))
	for i := range out {
		out[i] = b.ShedRatio(i)
	}
	return out
}

// Gate is a live-retunable shedder interposed before one pattern's engine
// at LevelShed. *shed.RandomShedder and *shed.UtilityShedder satisfy it;
// the interface lives here so core does not import internal/shed.
type Gate interface {
	Keep(e *event.Event) bool
	SetRatio(r float64)
}

// Adaptive-path metric names (the Processor's pipeline.* names stay
// untouched; see DESIGN.md §13).
const (
	// metricAdaptWindow is the per-window total service time: exact-level
	// engine feeds plus filter marking plus relay CEP for the window's
	// stride. Its rolling view (obs.Histogram.RecentQuantile) is the
	// controller's primary latency signal.
	metricAdaptWindow = "adapt.window_ns"
	// metricAdaptExact counts events fed to exact-level engines.
	metricAdaptExact = "adapt.events.exact"
)

// MetricAdaptWindow is the exported name of the adaptive per-window
// service-time histogram, the adapt controller's latency sensor.
const MetricAdaptWindow = metricAdaptWindow

// AdaptiveProcessor is the mode-switchable form of Processor: each
// monitored pattern's engine is fed according to its LevelBoard rung, and
// the board may be retuned live (by the adapt controller) between any two
// Push calls without draining in-flight windows.
//
// Semantics per level, per pattern:
//
//   - LevelExact: the engine consumes every pushed event at Push time
//     (including blanks, mirroring cep.Run), bypassing the filter.
//   - LevelFiltered: the engine consumes the filter's relay stream with
//     the Processor's exact geometry — marking windows, pending-queue
//     dedup, and relay watermark are byte-identical to Processor.
//   - LevelShed: as LevelFiltered, with the pattern's Gate deciding each
//     relay event first at the board's current shed ratio.
//
// Pinned at one level for a whole run, the emitted match-key set is
// decision-identical to the corresponding static configuration (cep.Run /
// Pipeline.Run / Processor + shedder on the relay stream) — the
// differential guarantee adaptive_test.go enforces. Live transitions are
// deliberately non-draining and therefore approximate at the seam: an
// engine moving 0→1 stops at the push horizon and resumes where the relay
// watermark catches up; one moving 1→0 misses events between the relay
// watermark and the current push position. The controller's dwell time
// makes seams rare; recall accounting prices what they spend.
//
// Events must arrive in strictly increasing ID order. Not safe for
// concurrent use — the board is the only cross-goroutine surface.
type AdaptiveProcessor struct {
	pl    *Pipeline
	board *LevelBoard
	gates []Gate
	res   *Result

	engines []*cep.Engine
	// horizon[i] is the next event ID engine i may consume. It guards the
	// engines' strictly-increasing-ID contract across live level switches:
	// whichever path (exact feed or relay) reaches an event first advances
	// it, and the other path skips below it.
	horizon []uint64
	patKeys []map[string]bool // per-pattern match keys when pl.TrackKeys
	seen    map[string]bool

	buf          []event.Event
	pending      []event.Event
	relayed      map[uint64]bool
	flushed      bool
	lastFiltered bool // the most recent marking window ran the filter

	// winAcc accumulates the current window stride's service time (exact
	// feeds + mark + relay CEP) for metricAdaptWindow.
	winAcc int64 // nanoseconds

	inC      *obs.Counter
	relayedC *obs.Counter
	droppedC *obs.Counter
	pendingG *obs.Gauge
	winRelC  *obs.Counter
	winDropC *obs.Counter
	exactC   *obs.Counter
	winH     *obs.Histogram
	prefix   []string // "cep.pattern.N"; nil when unobserved
	shedC    []*obs.Counter

	tracer *trace.Tracer
	curTr  *trace.WindowTrace
}

// NewAdaptiveProcessor creates a mode-switchable processor over the
// pipeline, driven by board. gates may be nil (LevelShed then behaves as
// LevelFiltered for gateless patterns) or hold one Gate per pattern.
func (pl *Pipeline) NewAdaptiveProcessor(board *LevelBoard, gates []Gate) (*AdaptiveProcessor, error) {
	if board == nil {
		return nil, fmt.Errorf("core: adaptive processor needs a level board")
	}
	if board.Patterns() != len(pl.pats) {
		return nil, fmt.Errorf("core: level board has %d patterns, pipeline has %d", board.Patterns(), len(pl.pats))
	}
	if gates != nil && len(gates) != len(pl.pats) {
		return nil, fmt.Errorf("core: %d gates for %d patterns", len(gates), len(pl.pats))
	}
	p := &AdaptiveProcessor{
		pl:       pl,
		board:    board,
		gates:    gates,
		res:      &Result{Keys: map[string]bool{}},
		horizon:  make([]uint64, len(pl.pats)),
		seen:     map[string]bool{},
		relayed:  map[uint64]bool{},
		inC:      pl.Obs.Counter(metricEventsIn),
		relayedC: pl.Obs.Counter(metricEventsRelay),
		droppedC: pl.Obs.Counter(metricEventsDrop),
		pendingG: pl.Obs.Gauge(metricPendingDepth),
		winRelC:  pl.Obs.Counter(metricWindowsRelay),
		winDropC: pl.Obs.Counter(metricWindowsDrop),
		exactC:   pl.Obs.Counter(metricAdaptExact),
		winH:     pl.Obs.Histogram(metricAdaptWindow),
		tracer:   pl.Trace,
	}
	for _, pat := range pl.pats {
		en, err := cep.New(pat, pl.schema)
		if err != nil {
			return nil, err
		}
		p.engines = append(p.engines, en)
	}
	if pl.Obs != nil {
		p.prefix = make([]string, len(p.engines))
		p.shedC = make([]*obs.Counter, len(p.engines))
		for i := range p.engines {
			p.prefix[i] = fmt.Sprintf("cep.pattern.%d", i)
			p.shedC[i] = pl.Obs.Counter(fmt.Sprintf("adapt.pattern.%d.shed.dropped", i))
		}
	}
	if pl.TrackKeys {
		p.patKeys = make([]map[string]bool, len(p.engines))
		for i := range p.patKeys {
			p.patKeys[i] = map[string]bool{}
		}
	}
	return p, nil
}

// Push feeds the next event and returns any matches completed by it.
func (p *AdaptiveProcessor) Push(ev event.Event) ([]*cep.Match, error) {
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
	out := p.feedExact(ev)
	p.buf = append(p.buf, ev)
	if len(p.buf) < p.pl.Cfg.MarkSize {
		return out, nil
	}
	if err := p.markWindow(p.buf); err != nil {
		return nil, err
	}
	// The StepSize events leaving the buffer have been seen by every
	// marking window that will ever cover them; unmarked ones are
	// definitively dropped from the filter path. At all-exact level no
	// filter ran, so nothing was dropped — the engines consumed the stream.
	if p.lastFiltered && (p.droppedC != nil || p.curTr != nil) {
		for _, old := range p.buf[:p.pl.Cfg.StepSize] {
			if !old.IsBlank() && !p.relayed[old.ID] {
				p.droppedC.Inc()
				if p.curTr != nil {
					p.curTr.Dropped++
				}
			}
		}
	}
	keep := len(p.buf) - p.pl.Cfg.StepSize
	copy(p.buf, p.buf[p.pl.Cfg.StepSize:])
	p.buf = p.buf[:keep]
	var upTo uint64
	if len(p.buf) > 0 {
		upTo = p.buf[0].ID
	} else {
		upTo = ev.ID + 1
	}
	out = p.relayBelow(out, upTo)
	p.winH.Observe(takeNS(&p.winAcc))
	if p.curTr != nil && p.curTr.MarkEndNS != 0 {
		p.tracer.Publish(p.curTr)
		p.curTr = nil
	}
	return out, nil
}

// feedExact gives the event to every pattern currently at LevelExact.
func (p *AdaptiveProcessor) feedExact(ev event.Event) []*cep.Match {
	any := false
	for i := range p.engines {
		if p.board.Level(i) == LevelExact && ev.ID >= p.horizon[i] {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	sw := metrics.StartStopwatch()
	perEngine := make([][]keyedMatch, len(p.engines))
	for i := range p.engines {
		if p.board.Level(i) != LevelExact || ev.ID < p.horizon[i] {
			continue
		}
		perEngine[i] = p.runEngine(i, func(en *cep.Engine) []*cep.Match { return en.Process(ev) })
		p.horizon[i] = ev.ID + 1
		p.exactC.Inc()
	}
	d := sw.Elapsed()
	p.winAcc += int64(d)
	p.res.CEPTime += d
	return p.collect(nil, mergeMatches(perEngine, p.seen))
}

// markWindow mirrors Processor.markWindow when any pattern is on a
// filtered rung, and is a stamped no-op when every pattern is exact (the
// filter is bypassed entirely — that is the point of level 0).
func (p *AdaptiveProcessor) markWindow(window []event.Event) error {
	maxLv := LevelExact
	for i := range p.engines {
		if l := p.board.Level(i); l > maxLv {
			maxLv = l
		}
	}
	tr := p.curTr
	if tr != nil {
		tr.WindowID = window[0].ID
		tr.Events = len(window)
		tr.StampLevel(int(maxLv))
		tr.MarkStartNS = p.tracer.Now()
	}
	p.lastFiltered = maxLv >= LevelFiltered
	if !p.lastFiltered {
		if tr != nil {
			tr.MarkEndNS = p.tracer.Now()
		}
		return nil
	}
	sw := metrics.StartStopwatch()
	marks := p.pl.Filter.Mark(window)
	elapsed := sw.Elapsed()
	if tr != nil {
		tr.MarkEndNS = p.tracer.Now()
	}
	p.res.FilterTime += elapsed
	p.winAcc += int64(elapsed)
	p.pl.Obs.Histogram(metricFilterWindow).Observe(elapsed)
	if len(marks) != len(window) {
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

// relayBelow mirrors Processor.relayBelow over the filtered-rung engines.
func (p *AdaptiveProcessor) relayBelow(out []*cep.Match, upTo uint64) []*cep.Match {
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
		delete(p.relayed, ev.ID)
	}
	tr := p.curTr
	if tr != nil && tr.MarkEndNS == 0 {
		tr = nil
	}
	var inst0 int64
	if tr != nil {
		tr.CEPStartNS = p.tracer.Now()
		inst0 = p.instanceCount()
	}
	sp := obs.Start(p.pl.Obs, metricCEPBatch)
	ms := p.processRelay(batch)
	sp.End()
	if tr != nil {
		tr.CEPEndNS = p.tracer.Now()
		tr.Matches += len(ms)
		tr.CEPInstances += p.instanceCount() - inst0
	}
	out = p.collect(out, ms)
	d := sw.Elapsed()
	p.res.CEPTime += d
	p.winAcc += int64(d)
	p.pendingG.Set(float64(len(p.pending)))
	return out
}

// processRelay feeds one ID-ordered relay batch to every filtered-rung
// engine, applying the pattern's shed gate on the LevelShed rung, and
// returns the batch's new matches deduped and key-sorted (engineSet
// ordering semantics).
func (p *AdaptiveProcessor) processRelay(batch []event.Event) []keyedMatch {
	perEngine := make([][]keyedMatch, len(p.engines))
	for i := range p.engines {
		lv := p.board.Level(i)
		if lv < LevelFiltered {
			continue // exact rung: the engine consumed the stream at Push
		}
		var gate Gate
		if lv >= LevelShed && p.gates != nil && p.gates[i] != nil {
			gate = p.gates[i]
			gate.SetRatio(p.board.ShedRatio(i))
		}
		perEngine[i] = p.runEngine(i, func(en *cep.Engine) []*cep.Match {
			var out []*cep.Match
			for bi := range batch {
				ev := batch[bi]
				if ev.ID < p.horizon[i] {
					continue // already consumed on the exact rung pre-switch
				}
				if gate != nil && !gate.Keep(&batch[bi]) {
					p.shedCount(i)
					p.horizon[i] = ev.ID + 1
					continue
				}
				out = append(out, en.Process(ev)...)
				p.horizon[i] = ev.ID + 1
			}
			return out
		})
	}
	return mergeMatches(perEngine, p.seen)
}

// Flush marks the trailing partial window, drains everything, and closes
// every engine. Call once at end of stream.
func (p *AdaptiveProcessor) Flush() ([]*cep.Match, error) {
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
	if p.lastFiltered && (p.droppedC != nil || p.curTr != nil) {
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
	tr := p.curTr
	p.curTr = nil
	if tr != nil && tr.MarkEndNS == 0 {
		p.tracer.Abandon(tr)
		tr = nil
	}
	sw := metrics.StartStopwatch()
	var inst0 int64
	if tr != nil {
		tr.CEPStartNS = p.tracer.Now()
		inst0 = p.instanceCount()
	}
	if len(p.pending) > 0 {
		batch := p.pending
		p.pending = nil
		if p.pl.OnRelay != nil {
			p.pl.OnRelay(batch)
		}
		p.res.EventsRelayed += len(batch)
		p.relayedC.Add(int64(len(batch)))
		out = p.collect(out, p.processRelay(batch))
	}
	p.pendingG.Set(0)
	perEngine := make([][]keyedMatch, len(p.engines))
	for i := range p.engines {
		perEngine[i] = p.runEngine(i, func(en *cep.Engine) []*cep.Match { return en.Flush() })
	}
	out = p.collect(out, mergeMatches(perEngine, p.seen))
	if tr != nil {
		tr.CEPEndNS = p.tracer.Now()
		tr.Matches += len(out)
		tr.CEPInstances += p.instanceCount() - inst0
		p.tracer.Publish(tr)
	}
	for _, en := range p.engines {
		p.res.CEPStats = append(p.res.CEPStats, en.Stats())
	}
	p.res.KeysByPattern = p.patKeys
	d := sw.Elapsed()
	p.res.CEPTime += d
	p.winAcc += int64(d)
	p.winH.Observe(takeNS(&p.winAcc))
	return out, nil
}

// Result returns the accumulated statistics; valid after Flush. The
// filter-path fields (EventsRelayed, FilterRatio) describe only what the
// filtered rungs processed — exact-rung consumption is metricAdaptExact.
func (p *AdaptiveProcessor) Result() *Result { return p.res }

// runEngine feeds fn's output for engine i under the per-pattern span and
// gauge publication engineSet.runOne performs, so cep.pattern.N.* telemetry
// is path-independent.
func (p *AdaptiveProcessor) runEngine(i int, fn func(*cep.Engine) []*cep.Match) []keyedMatch {
	en := p.engines[i]
	var out []*cep.Match
	if p.prefix == nil {
		out = fn(en)
	} else {
		sp := obs.Start(p.pl.Obs, p.prefix[i]+".batch_ns")
		out = fn(en)
		sp.End()
		en.Publish(p.pl.Obs, p.prefix[i])
	}
	ks := keyed(out)
	if p.patKeys != nil {
		for _, k := range ks {
			p.patKeys[i][k.key] = true
		}
	}
	return ks
}

func (p *AdaptiveProcessor) shedCount(i int) {
	if p.shedC != nil {
		p.shedC[i].Inc()
	}
}

func (p *AdaptiveProcessor) instanceCount() int64 {
	var n int64
	for _, en := range p.engines {
		n += en.InstanceCount()
	}
	return n
}

func (p *AdaptiveProcessor) collect(out []*cep.Match, ks []keyedMatch) []*cep.Match {
	for _, k := range ks {
		p.res.Keys[k.key] = true
		p.res.Matches = append(p.res.Matches, k.m)
		out = append(out, k.m)
	}
	return out
}

// takeNS returns *acc and zeroes it — the window-boundary hand-off from
// the service-time accumulator to the histogram.
func takeNS(acc *int64) time.Duration {
	d := time.Duration(*acc)
	*acc = 0
	return d
}
