// Command dlacep-run evaluates a stream with a trained DLACEP model and
// reports matches, throughput, and (optionally) the comparison against
// exact CEP.
//
// Usage:
//
//	dlacep-run -model model.json -data stream.csv -compare
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/metrics"
	"dlacep/internal/obs"
	"dlacep/internal/obs/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlacep-run:", err)
	os.Exit(1)
}

func main() {
	modelPath := flag.String("model", "model.json", "trained model from dlacep-train")
	dataPath := flag.String("data", "", "stream CSV to evaluate")
	compare := flag.Bool("compare", false, "also run exact CEP and report recall / gain")
	printMatches := flag.Int("print", 5, "print up to this many matches")
	metricsOut := flag.String("metrics-out", "", "write a JSON telemetry snapshot (stage timings, relay/drop counters) to this file")
	traceOut := flag.String("trace-out", "", "write sampled per-window pipeline traces (JSON Lines) to this file; analyze with dlacep-inspect -trace")
	traceEvery := flag.Int("trace-every", 64, "with -trace-out: sample one window trace per this many events")
	flag.Parse()
	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "usage: dlacep-run -model model.json -data stream.csv [-compare]")
		os.Exit(2)
	}

	mf, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	filter, pats, schema, err := core.LoadModel(mf)
	mf.Close()
	if err != nil {
		fatal(err)
	}
	df, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	st, err := event.ReadCSV(df)
	df.Close()
	if err != nil {
		fatal(err)
	}
	if got, want := st.Schema.Names(), schema.Names(); fmt.Sprint(got) != fmt.Sprint(want) {
		fatal(fmt.Errorf("stream schema %v does not match model schema %v", got, want))
	}

	w := int(pats[0].Window.Size)
	var cfg core.Config
	switch f := filter.(type) {
	case *core.EventNetwork:
		cfg = f.Cfg
	case core.WindowToEvent:
		cfg = f.F.(*core.WindowNetwork).Cfg
	default:
		cfg = core.DefaultConfig(w)
	}
	pl, err := core.NewPipeline(schema, pats, cfg, filter)
	if err != nil {
		fatal(err)
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		pl.Obs = reg
	}
	if *traceOut != "" {
		pl.Trace = trace.New(*traceEvery, trace.DefaultRing)
	}
	if *compare {
		pl.TrackKeys = true
	}
	res, err := pl.Run(st)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("events: %d  relayed: %d (filter ratio %.3f)\n",
		res.EventsTotal, res.EventsRelayed, res.FilterRatio())
	fmt.Printf("matches: %d\nthroughput: %.0f events/s (filter %v, cep %v)\n",
		len(res.Matches), res.Throughput(), res.FilterTime, res.CEPTime)
	for i, m := range res.Matches {
		if i >= *printMatches {
			fmt.Printf("... and %d more\n", len(res.Matches)-i)
			break
		}
		fmt.Printf("  match %d: events %v\n", i+1, m.IDs())
	}

	if *compare {
		ecep, err := core.RunECEPObserved(schema, pats, st, reg)
		if err != nil {
			fatal(err)
		}
		cmp := core.Compare(res, ecep)
		fmt.Printf("exact CEP: %d matches, %.0f events/s\n", len(ecep.Matches), ecep.Throughput())
		fmt.Printf("recall %.4f  F1 %.4f  dropped matches %d  throughput gain %.2fx\n",
			cmp.Recall, cmp.F1, cmp.Counts.FN, cmp.Gain)
		reg.Gauge("quality.recall").Set(cmp.Recall)
		reg.Gauge("quality.f1").Set(cmp.F1)
		reg.Gauge("quality.dropped_matches").Set(float64(cmp.Counts.FN))
		for i, want := range ecep.KeysByPattern {
			var got map[string]bool
			if i < len(res.KeysByPattern) {
				got = res.KeysByPattern[i]
			}
			c := metrics.MatchSets(got, want)
			fmt.Printf("  pattern %d: recall %.4f  dropped %d (of %d exact matches)\n", i, c.Recall(), c.FN, len(want))
			reg.Gauge(fmt.Sprintf("quality.pattern.%d.recall", i)).Set(c.Recall())
			reg.Gauge(fmt.Sprintf("quality.pattern.%d.dropped_matches", i)).Set(float64(c.FN))
		}
	}
	if reg != nil {
		raw, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*metricsOut, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
	if pl.Trace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		snap := pl.Trace.Snapshot()
		if err := snap.WriteJSONL(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%d window traces written to %s (1 per %d events; analyze with dlacep-inspect -trace)\n",
			len(snap.Traces), *traceOut, pl.Trace.Stride())
	}
}
