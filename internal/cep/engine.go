package cep

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"dlacep/internal/event"
	"dlacep/internal/obs"
	"dlacep/internal/pattern"
	pcompile "dlacep/internal/pattern/compile"
)

// Match is one full pattern match: the participating events in stream order
// plus the alias binding (aliases under Kleene closure are not individually
// bound; their events appear in Events).
type Match struct {
	Events  []*event.Event
	Binding map[string]*event.Event
}

// IDs returns the sorted event IDs of the match.
func (m *Match) IDs() []uint64 {
	ids := make([]uint64, len(m.Events))
	for i, e := range m.Events {
		ids[i] = e.ID
	}
	slices.Sort(ids)
	return ids
}

// Key is a canonical identity for match-set comparison: the sorted event
// IDs. Two matches over the same event set are considered identical,
// matching the paper's treatment of M(s) as a set of event subsets.
func (m *Match) Key() string {
	ids := m.IDs()
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(id, 10))
	}
	return b.String()
}

// Stats captures the engine-side cost metrics of Section 3.2: the number of
// instances (partial and full matches) created is the paper's computational
// complexity measure C_ECEP.
type Stats struct {
	Events    int   // events processed
	Instances int64 // partial + full match instances created
	Matches   int64 // full matches emitted
}

// Engine evaluates one pattern over a stream under skip-till-any-match.
// It is not safe for concurrent use; run one engine per goroutine.
type Engine struct {
	sh   *shared
	root evaluator
}

// Option configures engine construction.
type Option func(*engineOpts)

type engineOpts struct {
	interpret bool
}

// WithInterpreter evaluates WHERE conditions with the tree-walking
// interpreter instead of compiled predicates. Decisions are identical by
// the compiler's contract; this is the reference arm of the differential
// suite and an escape hatch should a compilation bug ever need ruling out.
func WithInterpreter() Option {
	return func(o *engineOpts) { o.interpret = true }
}

// New compiles a pattern into an engine bound to the stream schema. WHERE
// conditions are typechecked and compiled to closure chains here; an
// unknown alias or attribute is an error at submission, not a panic later.
func New(p *pattern.Pattern, schema *event.Schema, opts ...Option) (*Engine, error) {
	var eo engineOpts
	for _, o := range opts {
		o(&eo)
	}
	c, err := compile(p, schema, eo.interpret)
	if err != nil {
		return nil, err
	}
	sh := newShared(c)
	var root evaluator
	if p.Strategy == pattern.SkipTillAnyMatch {
		root, err = buildEval(sh, p.Root, true)
	} else {
		root, err = buildStrategyEval(sh, p.Root)
	}
	if err != nil {
		return nil, err
	}
	return &Engine{sh: sh, root: root}, nil
}

// Process feeds the next event. Events must arrive in strictly increasing
// ID order (gaps are fine: filtered streams keep their original IDs, which
// is how the engine enforces the paper's no-false-positives ID constraint).
// It returns the full matches completed by this event, including pending
// trailing-negation matches whose windows just closed.
func (en *Engine) Process(ev event.Event) []*Match {
	sh := en.sh
	sh.stats.Events++
	e := new(event.Event)
	*e = ev

	var out []*Match
	// Windows that closed strictly before e can now release their pending
	// trailing-negation matches.
	if len(sh.pending) > 0 {
		out = en.drainPending(e, false)
	}
	sh.bufferNeg(e)
	if ev.IsBlank() {
		sh.pruneNegBuf(e)
		return out
	}
	for _, inst := range en.root.process(e) {
		out = append(out, en.toMatch(inst))
	}
	sh.pruneNegBuf(e)
	return out
}

// Flush releases all pending trailing-negation matches, treating the end of
// the stream as window closure. Call once after the final event.
func (en *Engine) Flush() []*Match {
	return en.drainPending(nil, true)
}

func (en *Engine) drainPending(e *event.Event, all bool) []*Match {
	sh := en.sh
	var out []*Match
	kept := sh.pending[:0]
	for _, pm := range sh.pending {
		closed := all
		if !closed {
			if sh.c.pat.Window.Kind == pattern.CountWindow {
				closed = e.ID > pm.closeID
			} else {
				closed = e.Ts > pm.closeTs
			}
		}
		if !closed {
			kept = append(kept, pm)
			continue
		}
		if !sh.negOccursTrailing(pm) {
			out = append(out, en.toMatch(pm.inst))
		}
	}
	sh.pending = kept
	return out
}

func (en *Engine) toMatch(inst *instance) *Match {
	en.sh.stats.Matches++
	m := &Match{
		Events:  append([]*event.Event(nil), inst.events...),
		Binding: make(map[string]*event.Event, bits.OnesCount64(inst.mask)),
	}
	for b := inst.mask; b != 0; b &= b - 1 {
		s := bits.TrailingZeros64(b)
		m.Binding[en.sh.c.prims[s].Alias] = inst.bind[s]
	}
	return m
}

// Stats returns the accumulated cost counters.
func (en *Engine) Stats() Stats { return en.sh.stats }

// InstanceCount returns the instances created so far (the C_ECEP measure)
// without copying the full Stats struct — cheap enough for the tracing
// layer to read before and after every relay batch.
func (en *Engine) InstanceCount() int64 { return en.sh.stats.Instances }

// Publish exports the engine's current cost counters as gauges; see
// Stats.Publish. Call it from the goroutine that owns the engine (the
// registry is concurrency-safe, the engine is not).
func (en *Engine) Publish(reg *obs.Registry, prefix string) {
	en.sh.stats.Publish(reg, prefix)
}

// CondSelectivities returns the measured hit rate of every WHERE condition
// evaluated at least once, keyed by the condition's string form — the same
// key zstream.Statistics.Sel uses, so the result merges directly into a
// planner's statistics (see zstream.Statistics.MergeLive).
func (en *Engine) CondSelectivities() map[string]float64 {
	out := map[string]float64{}
	for _, co := range en.sh.c.condObs {
		if co.Obs.Evals() > 0 {
			out[co.Cond.String()] = co.Obs.Selectivity(0)
		}
	}
	return out
}

// PublishSelectivities exports per-condition evaluation counts and hit
// rates as gauges; see compile.PublishSelectivities for the naming scheme.
// Call from the goroutine that owns the engine.
func (en *Engine) PublishSelectivities(reg *obs.Registry, prefix string) {
	pcompile.PublishSelectivities(reg, prefix, en.sh.c.condObs)
}

// Run evaluates the whole stream and returns the deduplicated match set
// (by Key) plus engine statistics. It is the ECEP reference evaluation used
// by the labeler, the harness, and tests.
func Run(p *pattern.Pattern, st *event.Stream, opts ...Option) ([]*Match, Stats, error) {
	en, err := New(p, st.Schema, opts...)
	if err != nil {
		return nil, Stats{}, err
	}
	var matches []*Match
	seen := map[string]bool{}
	add := func(ms []*Match) {
		for _, m := range ms {
			if k := m.Key(); !seen[k] {
				seen[k] = true
				matches = append(matches, m)
			}
		}
	}
	for i := range st.Events {
		add(en.Process(st.Events[i]))
	}
	add(en.Flush())
	return matches, en.Stats(), nil
}

// Keys returns the set of match keys, the representation used for
// match-set similarity metrics.
func Keys(ms []*Match) map[string]bool {
	out := make(map[string]bool, len(ms))
	for _, m := range ms {
		out[m.Key()] = true
	}
	return out
}

func (s Stats) String() string {
	return fmt.Sprintf("events=%d instances=%d matches=%d", s.Events, s.Instances, s.Matches)
}

// Publish exports the counters as gauges under prefix (prefix.events,
// prefix.instances, prefix.matches). Instances is the paper's C_ECEP cost
// measure — the partial-match load "Foundations of Complex Event
// Processing" identifies as the primary driver of engine cost — published
// live so an overloaded pattern is visible before its batch result exists.
// A nil registry is a no-op.
func (s Stats) Publish(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix + ".events").Set(float64(s.Events))
	reg.Gauge(prefix + ".instances").Set(float64(s.Instances))
	reg.Gauge(prefix + ".matches").Set(float64(s.Matches))
}
