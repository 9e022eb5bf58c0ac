package queries_test

import (
	"testing"

	"dlacep/internal/cep"
	"dlacep/internal/queries"
)

// BenchmarkEngineQA1 runs the cep-bound benchmark's QA1 through one NFA
// engine over the pinned stock stream; one op is a whole pass. allocs/op is
// exact even at -benchtime 1x, so it is the number to compare across
// engine changes (divide by the stream's 3000 events for allocs/event).
func BenchmarkEngineQA1(b *testing.B) {
	st := pinnedStream()
	p := queries.QA1(18, 4, 14, []int{1, 2, 3}, 0.8, 1.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en, err := cep.New(p, st.Schema)
		if err != nil {
			b.Fatal(err)
		}
		for j := range st.Events {
			en.Process(st.Events[j])
		}
		en.Flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(st.Events)), "ns/event")
}

// survivorAllocsPerEvent bounds the steady-state allocation rate of QA1 on
// the pinned stream over events 1000-3000. 14.16 per event were measured
// when pruned merged instances started being recycled, against 188 before.
// What remains is the engine's copy of each event, each primitive instance
// (the instance, its buffer and the slice returning it), the completed
// instances and the emitted matches (each a Match, its Events copy and its
// Binding map); the merges that stay partial reuse the instances of pruned
// ones. The bound leaves room for a few runtime or map-growth allocations
// per event, but not for merges that allocate again: with the free list
// bypassed the same block allocates about 131 times per event.
const survivorAllocsPerEvent = 16.0

// TestSurvivorsRecycled asserts that after a warm-up pass, surviving merges
// cost no allocations: the engine reuses the instances its SEQ pruned.
func TestSurvivorsRecycled(t *testing.T) {
	st := pinnedStream()
	en, err := cep.New(queries.QA1(18, 4, 14, []int{1, 2, 3}, 0.8, 1.2), st.Schema)
	if err != nil {
		t.Fatal(err)
	}
	const warm, block, runs = 1000, 400, 4
	for j := 0; j < warm; j++ {
		en.Process(st.Events[j])
	}
	next := warm
	perBlock := testing.AllocsPerRun(runs, func() {
		for j := next; j < next+block; j++ {
			en.Process(st.Events[j])
		}
		next += block
	})
	t.Logf("%.2f allocs/event", perBlock/block)
	if got := perBlock / block; got > survivorAllocsPerEvent {
		t.Errorf("QA1 steady state allocates %.2f times per event, want <= %.2f", got, survivorAllocsPerEvent)
	}
}
