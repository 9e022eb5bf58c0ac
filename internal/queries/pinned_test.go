package queries_test

import (
	"fmt"
	"math"
	"testing"

	"dlacep/internal/cep"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/obs"
	"dlacep/internal/pattern"
	"dlacep/internal/queries"
)

// condCount is one WHERE condition's evaluation counters, in the order
// cep.Engine.PublishSelectivities indexes them.
type condCount struct{ Evals, Hits uint64 }

// pinnedStream is the fixed stock stream the pinned counts are taken over:
// the cep-bound benchmark's 150-ticker population shape at test scale.
func pinnedStream() *event.Stream {
	return dataset.Stock(dataset.StockConfig{Events: 3000, Tickers: 150, ZipfS: 1.2, Sigma: 0.25, Seed: 11})
}

// pinnedPatterns covers every evaluator the NFA engine builds: the
// cep-bound benchmark's QA1 (SEQ), a CONJ, a Kleene closure with a scoped
// single-alias condition, a trailing negation, and a skip-till-next-match
// sequence (the strategy evaluator).
func pinnedPatterns() []*pattern.Pattern {
	ref := func(alias string) pattern.Ref { return pattern.Ref{Alias: alias, Attr: "vol"} }
	top := dataset.TopTickers(4)

	kcChild := pattern.Prim("k", dataset.TopTickersBand(4, 10)...)
	kcChild.With(pattern.AbsRange{Lo: 0.5, Y: ref("k"), Hi: math.Inf(1)})
	kc := pattern.New("kleene",
		pattern.Seq(pattern.Prim("a", top...), pattern.KC(kcChild), pattern.Prim("c", top...)),
		pattern.Count(10),
		pattern.Ratio(0.7, ref("a"), ref("c"), 1.4))

	neg := pattern.New("trailing-neg",
		pattern.Seq(pattern.Prim("a", top...), pattern.Prim("b", top...),
			pattern.Neg(pattern.Prim("n", dataset.TopTickersBand(4, 10)...))),
		pattern.Count(8),
		pattern.Cmp{X: ref("n"), Op: ">", Y: ref("a")},
		pattern.Ratio(0.8, ref("a"), ref("b"), 1.25))

	// a and c accept the same tickers, so CONJ merges also meet candidates
	// that share an event.
	conj := pattern.New("conj",
		pattern.Conj(pattern.Prim("a", top...), pattern.Prim("b", dataset.TopTickersBand(4, 10)...),
			pattern.Prim("c", top...)),
		pattern.Count(8),
		pattern.Ratio(0.7, ref("a"), ref("b"), 1.4),
		pattern.Cmp{X: ref("c"), Op: "<", Y: ref("a")},
		pattern.AbsRange{Lo: 0.3, Y: ref("b"), Hi: math.Inf(1)})

	stnm := queries.QA1(18, 4, 14, []int{1, 2, 3}, 0.8, 1.2)
	stnm.Name = "QA1-stnm"
	stnm.Strategy = pattern.SkipTillNextMatch

	return []*pattern.Pattern{
		queries.QA1(18, 4, 14, []int{1, 2, 3}, 0.8, 1.2),
		conj,
		kc,
		neg,
		stnm,
	}
}

// pinned holds, per pinnedPatterns entry, the engine counters recorded on
// the commit before partial matches were built only after surviving their
// checks. Instances is the paper's C_ECEP and the Obs counts feed
// CondSelectivities and the zstream/lazy replanning loop; an engine change
// that moves any of them changes the cost model, not just the speed.
var pinned = []struct {
	stats cep.Stats
	conds []condCount
}{
	{ // QA1(j=4,k=14,a=0.8)
		cep.Stats{Events: 3000, Instances: 180307, Matches: 2118},
		[]condCount{{510850, 55514}, {55514, 10134}, {10134, 2118}},
	},
	{ // conj
		cep.Stats{Events: 3000, Instances: 12310, Matches: 695},
		[]condCount{{8230, 838}, {11680, 5933}, {429, 350}},
	},
	{ // kleene
		cep.Stats{Events: 3000, Instances: 6874, Matches: 1020},
		[]condCount{{3664, 1020}, {429, 294}},
	},
	{ // trailing-neg
		cep.Stats{Events: 3000, Instances: 4256, Matches: 923},
		[]condCount{{433, 269}, {5478, 1192}},
	},
	{ // QA1-stnm
		cep.Stats{Events: 3000, Instances: 6445, Matches: 76},
		[]condCount{{20763, 2386}, {2386, 452}, {452, 76}},
	},
}

// TestEngineCountsPinned asserts that the NFA engine's work counters — the
// Stats triple and every condition's evaluations and hits — are exactly the
// recorded constants.
func TestEngineCountsPinned(t *testing.T) {
	st := pinnedStream()
	pats := pinnedPatterns()
	if len(pinned) != len(pats) {
		t.Fatalf("%d pinned records for %d patterns", len(pinned), len(pats))
	}
	for i, p := range pats {
		stats, conds := engineCounts(t, p, st)
		want := pinned[i]
		if stats != want.stats {
			t.Errorf("%s: stats %+v, pinned %+v", p.Name, stats, want.stats)
		}
		if fmt.Sprint(conds) != fmt.Sprint(want.conds) {
			t.Errorf("%s: condition counts %v, pinned %v", p.Name, conds, want.conds)
		}
		if stats.Matches == 0 {
			t.Errorf("%s: no matches; the pin is vacuous", p.Name)
		}
	}
}

// engineCounts runs p over st through one engine and reads back its
// counters through the published selectivity gauges.
func engineCounts(t *testing.T, p *pattern.Pattern, st *event.Stream) (cep.Stats, []condCount) {
	t.Helper()
	en, err := cep.New(p, st.Schema)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	for i := range st.Events {
		en.Process(st.Events[i])
	}
	en.Flush()
	reg := obs.NewRegistry()
	en.PublishSelectivities(reg, "p")
	gauges := reg.Snapshot().Gauges
	var out []condCount
	for i := 0; ; i++ {
		name := fmt.Sprintf("p.cond.%d.", i)
		evals, ok := gauges[name+"evals"]
		if !ok {
			break
		}
		hits := math.Round(evals * gauges[name+"selectivity"])
		out = append(out, condCount{uint64(evals), uint64(hits)})
	}
	return en.Stats(), out
}
