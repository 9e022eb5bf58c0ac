package core

import (
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/pattern"
)

// EventFilter marks, for one assembled window, which events should be
// relayed to the CEP extractor. Implementations: the trained event-network,
// the window-network adapter, and the oracle/type ablation filters.
type EventFilter interface {
	Mark(window []event.Event) []bool
}

// BatchMarker is the optional K-window capability of an EventFilter: mark K
// windows in one call so a network filter can amortize weight streaming over
// the whole batch (nn.Network.InferBatch). MarkBatch must be decision-
// identical to calling Mark on each window in order. The returned mark rows
// may live in buffers owned by the filter and are valid only until its next
// MarkBatch call — callers consume them before marking again. The sharded
// serving pipeline (internal/shard) probes for this interface and falls back
// to per-window Mark when it is absent.
type BatchMarker interface {
	EventFilter
	MarkBatch(windows [][]event.Event) [][]bool
}

// CloneableFilter is an EventFilter that can produce independent clones for
// concurrent marking (one per shard worker or server connection). Clones
// share read-only trained state (weights, normalization statistics) but own
// any per-inference scratch buffers. Filters that are already safe for
// concurrent use return themselves. CloneFilter may return nil when cloning
// is unavailable (e.g. an adapter over a non-cloneable inner filter).
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

// WindowFilter classifies whole windows as applicable (containing at least
// one full match) or not — the coarse-grained variant of Section 4.3.
type WindowFilter interface {
	Applicable(window []event.Event) bool
}

// WindowToEvent adapts a WindowFilter to the EventFilter interface: every
// event of an applicable window is relayed, none of an inapplicable one
// (Figure 4's "whole windows" filtering scheme).
type WindowToEvent struct {
	F WindowFilter
}

// Mark relays all or nothing.
func (w WindowToEvent) Mark(window []event.Event) []bool {
	//dlacep:ignore hotalloc the Mark contract returns a fresh per-window row to the caller
	marks := make([]bool, len(window))
	//dlacep:coldpath window-level filters predate the allocation-free contract; their forward allocates per window
	if w.F.Applicable(window) {
		for i := range marks {
			marks[i] = true
		}
	}
	return marks
}

// CloneFilter clones through the adapter when the inner window filter is
// cloneable, and returns nil otherwise.
func (w WindowToEvent) CloneFilter() EventFilter {
	if cf, ok := w.F.(CloneableWindowFilter); ok {
		return WindowToEvent{F: cf.CloneWindowFilter()}
	}
	return nil
}

// OracleFilter marks exactly the ground-truth labels computed by exact CEP.
// It is the ablation upper bound on filter quality: pipeline results with
// the oracle isolate assembler/extractor overhead from network accuracy.
type OracleFilter struct {
	L *label.Labeler
}

// CloneFilter returns the filter itself: the labeler is mutex-protected and
// safe for concurrent use.
func (o OracleFilter) CloneFilter() EventFilter { return o }

// Mark returns the ground-truth event labels.
//
//dlacep:coldpath ablation-only oracle; ground-truth labeling runs exact CEP and allocates freely
func (o OracleFilter) Mark(window []event.Event) []bool {
	labels, err := o.L.EventLabels(window)
	if err != nil {
		//dlacep:ignore libpanic oracle filter is experiment-only; the Mark/Applicable interfaces have no error path and a labeling failure must abort the run
		panic("core: oracle labeling failed: " + err.Error())
	}
	marks := make([]bool, len(window))
	for i, l := range labels {
		marks[i] = l == 1
	}
	return marks
}

// OracleWindowFilter is the window-level oracle.
type OracleWindowFilter struct {
	L *label.Labeler
}

// CloneWindowFilter returns the filter itself (the labeler is mutex-protected).
func (o OracleWindowFilter) CloneWindowFilter() WindowFilter { return o }

// Applicable returns the ground-truth window label.
func (o OracleWindowFilter) Applicable(window []event.Event) bool {
	wl, err := o.L.WindowLabel(window)
	if err != nil {
		//dlacep:ignore libpanic oracle filter is experiment-only; the Mark/Applicable interfaces have no error path and a labeling failure must abort the run
		panic("core: oracle labeling failed: " + err.Error())
	}
	return wl == 1
}

// TypeFilter keeps only events whose type is mentioned by some monitored
// pattern — the trivial static baseline a deep filter must beat.
type TypeFilter struct {
	types map[string]bool
}

// NewTypeFilter builds the filter from the patterns' type sets.
func NewTypeFilter(pats ...*pattern.Pattern) TypeFilter {
	t := TypeFilter{types: map[string]bool{}}
	for _, p := range pats {
		for _, typ := range p.TypeSet() {
			t.types[typ] = true
		}
	}
	return t
}

// CloneFilter returns the filter itself: the type set is read-only after
// construction.
func (t TypeFilter) CloneFilter() EventFilter { return t }

// Mark keeps pattern-relevant types.
func (t TypeFilter) Mark(window []event.Event) []bool {
	//dlacep:ignore hotalloc the Mark contract returns a fresh per-window row to the caller
	marks := make([]bool, len(window))
	for i := range window {
		marks[i] = !window[i].IsBlank() && t.types[window[i].Type]
	}
	return marks
}

// KeepAllFilter relays everything; the pipeline then degenerates to ECEP
// plus assembler overhead (useful in tests and ablations).
type KeepAllFilter struct{}

// CloneFilter returns the filter itself (stateless).
func (f KeepAllFilter) CloneFilter() EventFilter { return f }

// Mark keeps every non-blank event.
func (KeepAllFilter) Mark(window []event.Event) []bool {
	//dlacep:ignore hotalloc the Mark contract returns a fresh per-window row to the caller
	marks := make([]bool, len(window))
	for i := range window {
		marks[i] = !window[i].IsBlank()
	}
	return marks
}
