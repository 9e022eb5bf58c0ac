package dlacep

// Benchmarks regenerating the paper's tables and figures at micro scale:
// one benchmark per table/figure. Each benchmark prepares its workload and
// (where needed) a trained or oracle filter outside the timer, then times
// the evaluation phase; figure-level metrics (throughput gain, recall) are
// attached via b.ReportMetric. For the full figure sweeps with trained
// networks, use `go run ./cmd/dlacep-bench -fig N` (see EXPERIMENTS.md).

import (
	"fmt"
	"sync"
	"testing"

	"dlacep/internal/cep"
	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/lazy"
	"dlacep/internal/mcep"
	"dlacep/internal/metrics"
	"dlacep/internal/pattern"
	"dlacep/internal/queries"
	"dlacep/internal/shed"
	"dlacep/internal/zstream"
)

const benchW = 18

// benchEnv caches a generated stock stream across benchmarks.
var benchEnv struct {
	once  sync.Once
	stock *event.Stream
	syn   *event.Stream
}

func benchStreams() (*event.Stream, *event.Stream) {
	benchEnv.once.Do(func() {
		benchEnv.stock = dataset.Stock(dataset.StockConfig{
			Events: 12000, Tickers: 150, ZipfS: 1.1, Sigma: 0.3, Seed: 5,
		})
		benchEnv.syn = dataset.Synthetic(12000, 15, 5)
	})
	return benchEnv.stock, benchEnv.syn
}

// benchPipeline times pipeline evaluation with the given filter against the
// ECEP baseline on the stream's tail, reporting gain and recall.
func benchPipeline(b *testing.B, pats []*pattern.Pattern, st *event.Stream, filter core.EventFilter) {
	b.Helper()
	w := int(pats[0].Window.Size)
	cfg := core.Config{MarkSize: 2 * w, StepSize: w, Hidden: 8, Layers: 1, Seed: 1}
	eval := st.Slice(st.Len()*7/10, st.Len())
	ecep, err := core.RunECEP(st.Schema, pats, eval)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := core.NewPipeline(st.Schema, pats, cfg, filter)
	if err != nil {
		b.Fatal(err)
	}
	// Warmup: populates the oracle's label cache so its Mark cost models a
	// free perfect filter rather than re-running exact CEP.
	if _, err := pl.Run(eval); err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = pl.Run(eval)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cmp := core.Compare(res, ecep)
	b.ReportMetric(cmp.Gain, "gain")
	b.ReportMetric(cmp.Recall, "recall")
	b.ReportMetric(res.FilterRatio(), "filter_ratio")
	b.ReportMetric(float64(eval.Len())/res.Elapsed().Seconds(), "events/s")
}

func oracleFor(b *testing.B, pats []*pattern.Pattern, schema *event.Schema) core.OracleFilter {
	b.Helper()
	lab, err := label.New(schema, pats...)
	if err != nil {
		b.Fatal(err)
	}
	return core.OracleFilter{L: lab}
}

// --- Tables 1 and 2: template instantiation and engine compilation --------

func BenchmarkTable1TemplateCompile(b *testing.B) {
	schema := dataset.VolSchema()
	for i := 0; i < b.N; i++ {
		for _, p := range []*pattern.Pattern{
			queries.QA1(benchW, 4, 7, []int{1, 2, 3}, 0.75, 1.3),
			queries.QA2(benchW, 10),
			queries.QA3(benchW, 4, 10, 4, []int{1, 2}, 1, 3, 0.75, 1.3, 0.5),
			queries.QA4(benchW, 4, 10, []int{1, 2}, 1, 3, 0.8, 1.2, 0.9, 1.1),
			queries.QA5(benchW, 2, 0.5, 1.5, 10, 3),
			queries.QA6(benchW, 3, 0.5, 1.5, 10),
			queries.QA7(benchW, 2, 0.5, 1.5, 10, 3),
			queries.QA8(benchW, 2, 0.5, 1.5, 10, 3),
			queries.QA9(benchW, 3, 0.5, 1.5, 0.6, 1.4, 10),
			queries.QA10(benchW, 3, 0.5, 1.5, 5),
			queries.QA11(benchW, false, 0.5, 1.5, 5),
			queries.QA12(benchW, 0.5, 1.5, 0.6, 1.4, 5),
		} {
			if _, err := cep.New(p, schema); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable2TemplateCompile(b *testing.B) {
	schema := dataset.VolSchema()
	for i := 0; i < b.N; i++ {
		for _, p := range []*pattern.Pattern{queries.QB1(benchW), queries.QB2(benchW), queries.QB3(benchW)} {
			if _, err := cep.New(p, schema); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 8: partial/full match regimes ----------------------------------

func BenchmarkFigure8aFewPartialMatches(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA1(benchW, 4, 3, []int{1, 2, 3}, 0.75, 1.3)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure8aManyPartialMatches(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA1(benchW, 4, 14, []int{1, 2, 3}, 0.8, 1.2)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure8aPartialsCompleteToFull(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA2(benchW, 7)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure8bPartialToFullRatio(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA4(benchW, 4, 14, []int{1, 2}, 1, 3, 0.85, 1.15, 0.9, 1.1)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure8cFullMatchSweep(b *testing.B) {
	st, _ := benchStreams()
	for _, a := range []float64{0.24, 0.76} {
		b.Run(fmt.Sprintf("alpha=%.2f", a), func(b *testing.B) {
			pats := []*pattern.Pattern{queries.QA1(benchW, 4, 14, []int{1, 2, 3}, a, 2-a)}
			benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
		})
	}
}

// --- Figure 9: pattern operators -------------------------------------------

func BenchmarkFigure9aKleene(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA5(2*benchW, 1, 0.6, 1.5, 10, 3)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure9bKleeneNested(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA6(benchW, 3, 0.75, 1.3, 10)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure9cNegation(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA7(benchW, 2, 0.75, 1.3, 10, 3)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure9dNegationNested(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA8(benchW, 2, 0.75, 1.3, 10, 3)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure9eDisjunction(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA9(benchW, 3, 0.75, 1.3, 0.7, 1.35, 10)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure9fDisjunctionMany(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA10(benchW, 3, 0.75, 1.3, 5)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

func BenchmarkFigure9gSeparateVsDisj(b *testing.B) {
	st, _ := benchStreams()
	p1 := queries.QA9(benchW, 3, 0.75, 1.3, 0.7, 1.35, 10)
	p2 := queries.QA5(benchW, 1, 0.6, 1.5, 10, 3)
	b.Run("separate", func(b *testing.B) {
		pats := []*pattern.Pattern{p1, p2}
		benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
	})
	b.Run("combined", func(b *testing.B) {
		pats := []*pattern.Pattern{pattern.Combine("both", p1, p2)}
		benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
	})
}

// --- Figure 10: qualitative miss analysis ----------------------------------

func BenchmarkFigure10MissAnalysis(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA10(benchW, 3, 0.7, 1.35, 5)}
	eval := st.Slice(st.Len()*7/10, st.Len())
	ecep, err := core.RunECEP(st.Schema, pats, eval)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// the analysis itself: per-match attribute variance
		for _, m := range ecep.Matches {
			var sum, sumSq float64
			for _, e := range m.Events {
				sum += e.Attrs[0]
				sumSq += e.Attrs[0] * e.Attrs[0]
			}
			n := float64(len(m.Events))
			_ = sumSq/n - (sum/n)*(sum/n)
		}
	}
}

// --- Figure 11: training budget --------------------------------------------

func BenchmarkFigure11TrainingEpoch(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA9(benchW, 3, 0.75, 1.3, 0.7, 1.35, 10)}
	lab, err := label.New(st.Schema, pats...)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{MarkSize: 2 * benchW, StepSize: benchW, Hidden: 8, Layers: 1, Seed: 1}
	trainWs := dataset.Windows(st.Slice(0, st.Len()*7/10), 2*benchW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := core.NewEventNetwork(st.Schema, pats, cfg)
		if err != nil {
			b.Fatal(err)
		}
		opt := core.DefaultTrainOptions()
		opt.MaxEpochs = 1
		opt.NoConvergence = true
		if _, err := net.Fit(trainWs[:64], lab, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 12: ECEP optimization baselines ---------------------------------

func BenchmarkFigure12NFA(b *testing.B) {
	st, _ := benchStreams()
	p := queries.QA11(benchW, false, 0.75, 1.3, 5)
	eval := st.Slice(st.Len()*7/10, st.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cep.Run(p, eval); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12ZStream(b *testing.B) {
	st, _ := benchStreams()
	for _, cse := range []struct {
		name string
		pat  *pattern.Pattern
	}{
		{"SEQ", queries.QA11(benchW, false, 0.75, 1.3, 5)},
		{"CONJ", queries.QA11(benchW, true, 0.8, 1.25, 5)},
		{"DISJ", queries.QA12(benchW, 0.75, 1.3, 0.7, 1.35, 5)},
	} {
		b.Run(cse.name, func(b *testing.B) {
			stats := zstream.EstimateStatistics(cse.pat, st, 500, 1)
			eval := st.Slice(st.Len()*7/10, st.Len())
			want, _, err := cep.Run(cse.pat, eval)
			if err != nil {
				b.Fatal(err)
			}
			var got []*cep.Match
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err = zstream.Run(cse.pat, eval, stats)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(metrics.MatchSets(cep.Keys(got), cep.Keys(want)).Recall(), "recall")
		})
	}
}

func BenchmarkFigure12Lazy(b *testing.B) {
	st, _ := benchStreams()
	for _, cse := range []struct {
		name string
		pat  *pattern.Pattern
	}{
		{"SEQ", queries.QA11(benchW, false, 0.75, 1.3, 5)},
		{"CONJ", queries.QA11(benchW, true, 0.8, 1.25, 5)},
		{"DISJ", queries.QA12(benchW, 0.75, 1.3, 0.7, 1.35, 5)},
	} {
		b.Run(cse.name, func(b *testing.B) {
			eval := st.Slice(st.Len()*7/10, st.Len())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := lazy.Run(cse.pat, eval); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure12DLACEP(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA11(benchW, false, 0.75, 1.3, 5)}
	benchPipeline(b, pats, st, oracleFor(b, pats, st.Schema))
}

// --- Figure 13: window and pattern size, layer depth ------------------------

func BenchmarkFigure13abWindowPatternSize(b *testing.B) {
	_, syn := benchStreams()
	for _, length := range []int{4, 6} {
		for _, w := range []int{12, 24} {
			b.Run(fmt.Sprintf("len=%d/W=%d", length, w), func(b *testing.B) {
				pats := []*pattern.Pattern{queries.ByLength(length, w)}
				benchPipeline(b, pats, syn, oracleFor(b, pats, syn.Schema))
			})
		}
	}
}

func BenchmarkFigure13cdLayers(b *testing.B) {
	_, syn := benchStreams()
	pats := []*pattern.Pattern{queries.QB1(24)}
	lab, err := label.New(syn.Schema, pats...)
	if err != nil {
		b.Fatal(err)
	}
	for _, layers := range []int{1, 3} {
		b.Run(fmt.Sprintf("layers=%d", layers), func(b *testing.B) {
			cfg := core.Config{MarkSize: 48, StepSize: 24, Hidden: 8, Layers: layers, Seed: 1}
			net, err := core.NewEventNetwork(syn.Schema, pats, cfg)
			if err != nil {
				b.Fatal(err)
			}
			opt := core.DefaultTrainOptions()
			opt.MaxEpochs = 1
			opt.NoConvergence = true
			trainWs := dataset.Windows(syn.Slice(0, 4800), 48)
			if _, err := net.Fit(trainWs, lab, opt); err != nil {
				b.Fatal(err)
			}
			windows := dataset.Windows(syn.Slice(4800, 9600), 48)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, w := range windows {
					net.Mark(w)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(windows)*48)*float64(b.N)/b.Elapsed().Seconds(), "marked_events/s")
		})
	}
}

// --- Figure 14: simulated time-based windows --------------------------------

func BenchmarkFigure14TimeBased(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA5(benchW, 1, 0.6, 1.5, 10, 3)}
	lab, err := label.New(st.Schema, pats...)
	if err != nil {
		b.Fatal(err)
	}
	mw := 2 * benchW
	cfg := core.Config{MarkSize: mw, StepSize: mw, Hidden: 8, Layers: 1, Seed: 1}
	eval := st.Slice(st.Len()*7/10, st.Len())
	windows := dataset.TimeWindows(eval, mw, 3)
	pl, err := core.NewPipeline(st.Schema, pats, cfg, core.OracleFilter{L: lab})
	if err != nil {
		b.Fatal(err)
	}
	ecep, err := core.RunECEP(st.Schema, pats, eval)
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = pl.RunWindows(windows)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cmp := core.Compare(res, ecep)
	b.ReportMetric(cmp.Gain, "gain")
	b.ReportMetric(cmp.Recall, "recall")
}

// --- substrate micro-benchmarks ---------------------------------------------

func BenchmarkNFAEngineThroughput(b *testing.B) {
	st, _ := benchStreams()
	p := queries.QA1(benchW, 4, 14, []int{1, 2, 3}, 0.8, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cep.Run(p, st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkBiLSTMInference(b *testing.B) {
	_, syn := benchStreams()
	pats := []*pattern.Pattern{queries.QB3(benchW)}
	cfg := core.Config{MarkSize: 2 * benchW, StepSize: benchW, Hidden: 16, Layers: 1, Seed: 1}
	net, err := core.NewEventNetwork(syn.Schema, pats, cfg)
	if err != nil {
		b.Fatal(err)
	}
	window := syn.Events[:2*benchW]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Mark(window)
	}
	b.StopTimer()
	b.ReportMetric(float64(2*benchW)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkLabeling(b *testing.B) {
	st, _ := benchStreams()
	p := queries.QA1(benchW, 4, 14, []int{1, 2, 3}, 0.8, 1.2)
	windows := dataset.Windows(st.Slice(0, 3600), 2*benchW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab, err := label.New(st.Schema, p) // fresh labeler: no cache hits
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range windows {
			if _, err := lab.EventLabels(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- extension benchmarks: selection strategies, shedding, serving ----------

func BenchmarkSelectionStrategies(b *testing.B) {
	st, _ := benchStreams()
	src := queries.QA1(benchW, 4, 14, []int{1, 2, 3}, 0.8, 1.2)
	for _, strat := range []pattern.SelectionStrategy{
		pattern.SkipTillAnyMatch, pattern.SkipTillNextMatch, pattern.StrictContiguity,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			p := *src
			p.Strategy = strat
			eval := st.Slice(st.Len()*7/10, st.Len())
			var stats cep.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = cep.Run(&p, eval)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(stats.Instances), "instances")
		})
	}
}

func BenchmarkLoadShedding(b *testing.B) {
	st, _ := benchStreams()
	p := queries.QA1(benchW, 3, 14, []int{1, 2}, 0.7, 1.4)
	lab, err := label.New(st.Schema, p)
	if err != nil {
		b.Fatal(err)
	}
	util, rate, err := shed.TypeUtility(lab, dataset.Windows(st.Slice(0, 3600), 2*benchW))
	if err != nil {
		b.Fatal(err)
	}
	eval := st.Slice(st.Len()*7/10, st.Len())
	exact, err := shed.Run(p, eval, shed.NewRandom(0, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		mk   func() shed.Shedder
	}{
		{"utility", func() shed.Shedder { s, _ := shed.NewUtility(0.5, util, rate, 1); return s }},
		{"random", func() shed.Shedder { return shed.NewRandom(0.5, 1) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			var res *shed.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = shed.Run(p, eval, mk.mk())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(metrics.MatchSets(res.Matches, exact.Matches).Recall(), "recall")
		})
	}
}

func BenchmarkIncrementalProcessor(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{queries.QA1(benchW, 3, 14, []int{1, 2}, 0.7, 1.4)}
	lab, err := label.New(st.Schema, pats...)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{MarkSize: 2 * benchW, StepSize: benchW, Hidden: 8, Layers: 1, Seed: 1}
	pl, err := core.NewPipeline(st.Schema, pats, cfg, core.OracleFilter{L: lab})
	if err != nil {
		b.Fatal(err)
	}
	eval := st.Slice(st.Len()*7/10, st.Len())
	if _, err := pl.Run(eval); err != nil { // warm label memo
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc, err := pl.NewProcessor()
		if err != nil {
			b.Fatal(err)
		}
		for j := range eval.Events {
			if _, err := proc.Push(eval.Events[j]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := proc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eval.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkMultiPatternShared(b *testing.B) {
	st, _ := benchStreams()
	pats := []*pattern.Pattern{
		queries.QA1(benchW, 4, 14, []int{1, 2, 3}, 0.8, 1.2),
		queries.QA1(benchW, 4, 14, []int{1, 2}, 0.7, 1.3),
		queries.QA2(benchW, 14),
	}
	eval := st.Slice(st.Len()*7/10, st.Len())
	b.Run("shared", func(b *testing.B) {
		var stats mcep.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, stats, err = mcep.Run(pats, eval)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Instances), "instances")
	})
	b.Run("separate", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			total = 0
			for _, p := range pats {
				_, s, err := cep.Run(p, eval)
				if err != nil {
					b.Fatal(err)
				}
				total += s.Instances
			}
		}
		b.ReportMetric(float64(total), "instances")
	})
}
