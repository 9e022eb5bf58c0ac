package core

import (
	"fmt"
	"slices"
	"strings"

	"dlacep/internal/cep"
	"dlacep/internal/event"
	"dlacep/internal/obs"
)

// engineSet holds the pipeline's per-pattern CEP engines and feeds them each
// relayed batch in pattern order. With a non-nil registry every batch is
// timed per pattern (cep.pattern.N.batch_ns) and each engine's cost counters
// are re-published as cep.pattern.N.* gauges after the batch, so per-pattern
// load is visible mid-stream.
type engineSet struct {
	engines []*cep.Engine
	reg     *obs.Registry
	prefix  []string // "cep.pattern.N", resolved once; nil when reg is nil
	// patKeys, when TrackKeys enabled it, accumulates each engine's own
	// match keys before the cross-engine dedup in mergeMatches (which
	// erases a later pattern's repeat of an earlier pattern's key).
	patKeys []map[string]bool
}

// newEngines builds one engine per monitored pattern, observed through
// pl.Obs and keyed per pattern when pl.TrackKeys is set.
func (pl *Pipeline) newEngines() (*engineSet, error) {
	es := &engineSet{engines: make([]*cep.Engine, len(pl.pats)), reg: pl.Obs}
	for i, pat := range pl.pats {
		en, err := cep.New(pat, pl.schema)
		if err != nil {
			return nil, err
		}
		es.engines[i] = en
	}
	if es.reg != nil {
		es.prefix = make([]string, len(es.engines))
		for i := range es.engines {
			es.prefix[i] = fmt.Sprintf("cep.pattern.%d", i)
		}
	}
	if pl.TrackKeys {
		es.patKeys = make([]map[string]bool, len(es.engines))
		for i := range es.patKeys {
			es.patKeys[i] = map[string]bool{}
		}
	}
	return es, nil
}

// instanceCount sums the engines' created-instance counters (C_ECEP). Call
// between batches, not during one.
func (es *engineSet) instanceCount() int64 {
	var n int64
	for _, en := range es.engines {
		n += en.InstanceCount()
	}
	return n
}

// runOne feeds fn's output for engine i, timed and published when the set
// is observed, and keys each match.
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
	return es.each(func(en *cep.Engine) []*cep.Match { return runBatch(en, batch) }, seen)
}

// Flush closes every engine and returns the remaining new matches in the
// same deterministic order as Process.
func (es *engineSet) Flush(seen map[string]bool) []keyedMatch {
	return es.each((*cep.Engine).Flush, seen)
}

// each runs fn on every engine in pattern order and merges the outputs.
func (es *engineSet) each(fn func(*cep.Engine) []*cep.Match, seen map[string]bool) []keyedMatch {
	perEngine := make([][]keyedMatch, len(es.engines))
	for i := range es.engines {
		perEngine[i] = es.runOne(i, fn)
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

// EngineSet is the exported handle over the pipeline's per-pattern CEP
// engines, built for consumers that run the relay stage themselves — the
// sharded serving pipeline (internal/shard) feeds it the globally merged,
// ID-ordered relayed stream. It wraps the same engineSet the Processor
// uses, so per-pattern telemetry and the deterministic
// dedup-then-sort-by-key output order are identical, and it owns the
// seen-keys dedup state so every match key is emitted exactly once across
// Process and Flush calls.
//
// Like the Processor, an EngineSet is single-goroutine: batches must arrive
// from one goroutine in globally non-decreasing ID order.
type EngineSet struct {
	es   *engineSet
	seen map[string]bool
}

// NewEngineSet builds the pipeline's engines without the marking stages.
func (pl *Pipeline) NewEngineSet() (*EngineSet, error) {
	es, err := pl.newEngines()
	if err != nil {
		return nil, err
	}
	return &EngineSet{es: es, seen: map[string]bool{}}, nil
}

// Process feeds one ID-ordered relayed batch to every engine and returns the
// new matches, deduped by engine index and sorted by match key.
func (s *EngineSet) Process(batch []event.Event) []*cep.Match {
	return appendMatches(nil, s.es.Process(batch, s.seen))
}

// Flush closes every engine and returns the remaining new matches.
func (s *EngineSet) Flush() []*cep.Match {
	return appendMatches(nil, s.es.Flush(s.seen))
}

// Stats returns the per-engine cost counters in pattern order.
func (s *EngineSet) Stats() []cep.Stats {
	return s.es.Stats()
}

// KeysByPattern returns the per-pattern pre-dedup match-key sets (nil
// unless the owning Pipeline had TrackKeys set when the set was built).
func (s *EngineSet) KeysByPattern() []map[string]bool {
	return s.es.patKeys
}

// InstanceCount sums the engines' created-instance counters (the paper's
// C_ECEP measure). Call from the owning goroutine between batches.
func (s *EngineSet) InstanceCount() int64 {
	return s.es.instanceCount()
}
