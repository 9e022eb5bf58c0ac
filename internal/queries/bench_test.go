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
