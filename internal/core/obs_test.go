package core

import (
	"testing"
	"time"

	"dlacep/internal/dataset"
	"dlacep/internal/obs"
)

// observedRun executes one seeded pipeline run against a fresh registry and
// returns the snapshot.
func observedRun(t *testing.T, seed int64) *obs.Snapshot {
	t.Helper()
	st := dataset.Synthetic(160, 4, seed)
	pl := multiPipeline(t, hashFilter{salt: uint64(seed)})
	reg := obs.NewRegistry()
	pl.Obs = reg
	if _, err := pl.Run(st); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot()
}

// TestObservedRunDeterministic runs the same seeded stream twice through an
// instrumented pipeline and requires every non-timing metric —
// counters and gauges — to agree exactly. Timing histograms (the `_ns`
// names) are clock-dependent and excluded, but their observation counts
// must still match: the same windows and batches are measured either way.
func TestObservedRunDeterministic(t *testing.T) {
	a := observedRun(t, 42)
	b := observedRun(t, 42)

	if len(a.Counters) == 0 {
		t.Fatal("instrumented run produced no counters")
	}
	for name, av := range a.Counters {
		if bv, ok := b.Counters[name]; !ok || bv != av {
			t.Errorf("counter %s: %d vs %d", name, av, bv)
		}
	}
	for name, av := range a.Gauges {
		if bv, ok := b.Gauges[name]; !ok || bv != av {
			t.Errorf("gauge %s: %v vs %v", name, av, bv)
		}
	}
	if len(a.Gauges) != len(b.Gauges) || len(a.Counters) != len(b.Counters) {
		t.Errorf("metric sets differ: %d/%d counters, %d/%d gauges",
			len(a.Counters), len(b.Counters), len(a.Gauges), len(b.Gauges))
	}
	// Per-window histograms must record the same number of observations even
	// though the observed durations differ.
	for name, ah := range a.Histograms {
		if bh, ok := b.Histograms[name]; !ok || bh.Count != ah.Count {
			t.Errorf("histogram %s: count %d vs %d", name, ah.Count, bh.Count)
		}
	}
}

// TestObservedCountersConsistent checks the accounting identities the
// counters must satisfy against the run's own Result: every ingested event
// is eventually either relayed or dropped, and the counter values mirror
// the Result fields.
func TestObservedCountersConsistent(t *testing.T) {
	st := dataset.Synthetic(200, 4, 7)
	pl := multiPipeline(t, hashFilter{salt: 3})
	reg := obs.NewRegistry()
	pl.Obs = reg
	res, err := pl.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	in := snap.Counters["pipeline.events.in"]
	relayed := snap.Counters["pipeline.events.relayed"]
	dropped := snap.Counters["pipeline.events.dropped"]
	if in != int64(res.EventsTotal) {
		t.Errorf("events.in = %d, Result.EventsTotal = %d", in, res.EventsTotal)
	}
	if relayed != int64(res.EventsRelayed) {
		t.Errorf("events.relayed = %d, Result.EventsRelayed = %d", relayed, res.EventsRelayed)
	}
	if relayed+dropped != in {
		t.Errorf("relayed(%d) + dropped(%d) != in(%d)", relayed, dropped, in)
	}
	if h := snap.Histograms["pipeline.filter.window_ns"]; h.Count == 0 {
		t.Error("no filter window timings recorded")
	}
	if h := snap.Histograms["pipeline.cep.batch_ns"]; h.Count == 0 {
		t.Error("no CEP batch timings recorded")
	}
	if res.WallTime <= 0 {
		t.Error("Result.WallTime not recorded")
	}
	if res.Elapsed() != res.WallTime {
		t.Errorf("Elapsed() = %v, want WallTime %v", res.Elapsed(), res.WallTime)
	}
}

// TestProcessorCountersMatchBatch feeds the same stream through the
// incremental Processor and through RunWindows over the Processor's window
// geometry and requires the relay/drop accounting to agree: the
// eviction-time definitive-drop scan must reproduce the batch path's
// end-of-run subtraction.
func TestProcessorCountersMatchBatch(t *testing.T) {
	st := dataset.Synthetic(180, 4, 11)

	batchReg := obs.NewRegistry()
	pl := multiPipeline(t, hashFilter{salt: 5})
	pl.Obs = batchReg
	windowsRun(t, pl, st)

	procReg := obs.NewRegistry()
	pl2 := multiPipeline(t, hashFilter{salt: 5})
	pl2.Obs = procReg
	proc, err := pl2.NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range st.Events {
		if _, err := proc.Push(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := proc.Flush(); err != nil {
		t.Fatal(err)
	}

	bs, ps := batchReg.Snapshot(), procReg.Snapshot()
	for _, name := range []string{
		"pipeline.events.in", "pipeline.events.relayed", "pipeline.events.dropped",
		"filter.windows.relayed", "filter.windows.dropped",
	} {
		if bs.Counters[name] != ps.Counters[name] {
			t.Errorf("%s: batch %d vs processor %d", name, bs.Counters[name], ps.Counters[name])
		}
	}
	if b, p := bs.Histograms["pipeline.filter.window_ns"].Count, ps.Histograms["pipeline.filter.window_ns"].Count; b != p || b == 0 {
		t.Errorf("marked windows: batch %d vs processor %d", b, p)
	}
	if g := ps.Gauges["pipeline.pending.depth"]; g != 0 {
		t.Errorf("pending depth after Flush = %v, want 0", g)
	}
}

// TestUnobservedRunUnchanged guards the nil-registry contract: a pipeline
// without a registry must behave identically (same Result) to an observed
// one, and Elapsed must fall back to the stage decomposition when no wall
// clock was recorded.
func TestUnobservedRunUnchanged(t *testing.T) {
	st := dataset.Synthetic(150, 4, 21)
	plain := multiPipeline(t, hashFilter{salt: 9})
	obsd := multiPipeline(t, hashFilter{salt: 9})
	obsd.Obs = obs.NewRegistry()
	r1, err := plain.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := obsd.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Keys) != len(r2.Keys) || r1.EventsRelayed != r2.EventsRelayed {
		t.Errorf("observed run changed results: %d/%d keys, %d/%d relayed",
			len(r1.Keys), len(r2.Keys), r1.EventsRelayed, r2.EventsRelayed)
	}

	legacy := &Result{FilterTime: 2 * time.Second, CEPTime: time.Second}
	if legacy.Elapsed() != 3*time.Second {
		t.Errorf("fallback Elapsed = %v, want 3s", legacy.Elapsed())
	}
}
