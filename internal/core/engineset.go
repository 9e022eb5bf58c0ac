package core

import (
	"dlacep/internal/cep"
	"dlacep/internal/event"
)

// EngineSet is the exported handle over the pipeline's per-pattern CEP
// engines, built for consumers that run the relay stage themselves — the
// sharded serving pipeline (internal/shard) feeds it the globally merged,
// ID-ordered relayed stream. It wraps the same engineSet the sequential
// Processor uses, so batch fan-out, per-pattern telemetry, and the
// deterministic dedup-then-sort-by-key output order are identical, and it
// owns the seen-keys dedup state so every match key is emitted exactly once
// across Process and Flush calls.
//
// Like the Processor, an EngineSet is single-goroutine: batches must arrive
// from one goroutine in globally non-decreasing ID order.
type EngineSet struct {
	es   *engineSet
	seen map[string]bool
}

// NewEngineSet builds the pipeline's engines without the marking stages.
func (pl *Pipeline) NewEngineSet() (*EngineSet, error) {
	engines := make([]*cep.Engine, len(pl.pats))
	for i, pat := range pl.pats {
		en, err := cep.New(pat, pl.schema)
		if err != nil {
			return nil, err
		}
		engines[i] = en
	}
	s := &EngineSet{
		es:   newEngineSet(engines, pl.Cfg.Workers(), pl.Obs),
		seen: map[string]bool{},
	}
	if pl.TrackKeys {
		s.es.trackKeys()
	}
	return s, nil
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
