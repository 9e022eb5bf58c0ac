package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dlacep/internal/cep"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/pattern"
)

// The core has two steppers: the incremental Processor (which Pipeline.Run
// drives) and the batch relay scan of RunWindows over pre-cut windows. The
// tests here run both over the Processor's own window geometry
// (assembleStreaming) and require the same output: match keys and order,
// relay/total counts, and per-pattern CEP cost counters.

// hashFilter marks events by a pure function of their IDs: deterministic,
// stateless, and trivially cloneable, with marks that vary per salt.
type hashFilter struct{ salt uint64 }

func (h hashFilter) Mark(w []event.Event) []bool {
	marks := make([]bool, len(w))
	for i := range w {
		marks[i] = !w[i].IsBlank() && (w[i].ID*2654435761+h.salt)%3 != 0
	}
	return marks
}

func (h hashFilter) CloneFilter() EventFilter { return h }

var multiPats = []string{
	"PATTERN SEQ(A a, B b, C c) WHERE a.vol < c.vol WITHIN 8",
	"PATTERN SEQ(B b, KC(C c), D d) WITHIN 8",
	"PATTERN CONJ(A a, D d) WITHIN 8",
}

func multiPipelineCfg(t *testing.T, filter EventFilter, cfg Config) *Pipeline {
	t.Helper()
	pats := make([]*pattern.Pattern, len(multiPats))
	for i, src := range multiPats {
		pats[i] = pattern.MustParse(src)
	}
	pl, err := NewPipeline(volSchema, pats, cfg, filter)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// multiPipeline is the three-pattern pipeline (W = 8, MarkSize 16, StepSize
// 8) most core tests run.
func multiPipeline(t *testing.T, filter EventFilter) *Pipeline {
	t.Helper()
	return multiPipelineCfg(t, filter, smallCfg(8))
}

// assembleStreaming cuts a stream into exactly the marking windows the
// incremental Processor produces: full MarkSize windows at StepSize stride,
// plus the trailing partial buffer (the events after the last stride). This
// differs from Assemble's tail handling, which re-cuts the last full
// MarkSize events.
func assembleStreaming(events []event.Event, markSize, stepSize int) [][]event.Event {
	n := len(events)
	var out [][]event.Event
	lo := 0
	for lo+markSize <= n {
		out = append(out, events[lo:lo+markSize])
		lo += stepSize
	}
	if lo < n {
		out = append(out, events[lo:n])
	}
	return out
}

// processorRun pushes st through a fresh Processor and returns its Result
// and the matches in the order Push and Flush emitted them.
func processorRun(t testing.TB, pl *Pipeline, st *event.Stream) (*Result, []*cep.Match) {
	t.Helper()
	proc, err := pl.NewProcessor()
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*cep.Match
	for i := range st.Events {
		ms, err := proc.Push(st.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, ms...)
	}
	ms, err := proc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return proc.Result(), append(streamed, ms...)
}

// windowsRun runs RunWindows over the Processor's window geometry.
func windowsRun(t testing.TB, pl *Pipeline, st *event.Stream) *Result {
	t.Helper()
	res, err := pl.RunWindows(assembleStreaming(st.Events, pl.Cfg.MarkSize, pl.Cfg.StepSize))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func matchOrder(ms []*cep.Match) string {
	ks := make([]string, len(ms))
	for i, m := range ms {
		ks[i] = m.Key()
	}
	return strings.Join(ks, "|")
}

// requireSameRun fails unless the Processor's output (its Result and the
// matches it streamed) equals RunWindows' Result.
func requireSameRun(t testing.TB, what string, proc *Result, streamed []*cep.Match, win *Result) {
	t.Helper()
	if got := cep.Keys(streamed); !reflect.DeepEqual(got, win.Keys) {
		t.Fatalf("%s: streamed keys (%d) differ from RunWindows (%d)", what, len(got), len(win.Keys))
	}
	if !reflect.DeepEqual(proc.Keys, win.Keys) {
		t.Fatalf("%s: Processor result keys (%d) differ from RunWindows (%d)", what, len(proc.Keys), len(win.Keys))
	}
	if a, b := matchOrder(streamed), matchOrder(win.Matches); a != b {
		t.Fatalf("%s: match order differs:\nprocessor  %s\nrunwindows %s", what, a, b)
	}
	if proc.EventsTotal != win.EventsTotal || proc.EventsRelayed != win.EventsRelayed {
		t.Fatalf("%s: counts differ: total %d/%d relayed %d/%d", what,
			proc.EventsTotal, win.EventsTotal, proc.EventsRelayed, win.EventsRelayed)
	}
	if !reflect.DeepEqual(proc.CEPStats, win.CEPStats) {
		t.Fatalf("%s: CEPStats differ:\nprocessor  %+v\nrunwindows %+v", what, proc.CEPStats, win.CEPStats)
	}
}

// TestParallelRunEquivalence is the differential-equivalence property over
// many randomized streams: Pipeline.Run, the Processor it drives, and
// RunWindows over the Processor's geometry agree on match keys and order,
// relay and total counts, and CEP cost counters.
func TestParallelRunEquivalence(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		st := dataset.Synthetic(120+seed%40, 4, int64(1000+seed))
		pl := multiPipeline(t, hashFilter{salt: uint64(seed)})
		proc, streamed := processorRun(t, pl, st)
		win := windowsRun(t, pl, st)
		requireSameRun(t, fmt.Sprintf("seed %d", seed), proc, streamed, win)
		run, err := pl.Run(st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run.Keys, win.Keys) || run.EventsRelayed != win.EventsRelayed {
			t.Fatalf("seed %d: Run (%d keys, %d relayed) differs from RunWindows (%d, %d)",
				seed, len(run.Keys), run.EventsRelayed, len(win.Keys), win.EventsRelayed)
		}
	}
}

// TestParallelMatchOrderDeterministic reruns the same configuration and
// requires identical match key sequences from Run and from RunWindows.
func TestParallelMatchOrderDeterministic(t *testing.T) {
	st := dataset.Synthetic(200, 4, 42)
	pl := multiPipeline(t, hashFilter{salt: 7})
	order := func() (string, string) {
		res, err := pl.Run(st)
		if err != nil {
			t.Fatal(err)
		}
		return matchOrder(res.Matches), matchOrder(windowsRun(t, pl, st).Matches)
	}
	run, win := order()
	if run != win {
		t.Fatal("Run and RunWindows emit matches in different orders")
	}
	for i := 0; i < 5; i++ {
		if a, b := order(); a != run || b != win {
			t.Fatalf("run %d produced a different match order", i)
		}
	}
}

// TestParallelNetworkFilterEquivalence runs a real (untrained but
// deterministic) BiLSTM event-network through the Processor and a clone of
// it through RunWindows: the clone — what shard workers and server
// connections mark with — must mark exactly like the original.
func TestParallelNetworkFilterEquivalence(t *testing.T) {
	pats := make([]*pattern.Pattern, len(multiPats))
	for i, src := range multiPats {
		pats[i] = pattern.MustParse(src)
	}
	net, err := NewEventNetwork(volSchema, pats, smallCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.Synthetic(150, 4, 9)
	net.Emb.Fit(st)
	net.Threshold = 0.45 // below 0.5 so the untrained net relays something

	pl, err := NewPipeline(volSchema, pats, net.Cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	proc, streamed := processorRun(t, pl, st)
	clonePl, err := NewPipeline(volSchema, pats, net.Cfg, net.CloneFilter())
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "network", proc, streamed, windowsRun(t, clonePl, st))
	if proc.EventsRelayed == 0 {
		t.Fatal("degenerate test: nothing relayed")
	}
}

// TestParallelProcessorMatchesRun checks the Processor against RunWindows on
// stream lengths around the window boundaries (MarkSize 16, StepSize 8),
// where the trailing partial window differs from Assemble's.
func TestParallelProcessorMatchesRun(t *testing.T) {
	for _, n := range []int{1, 7, 8, 15, 16, 17, 24, 100, 201} {
		st := dataset.Synthetic(n, 4, int64(50+n))
		pl := multiPipeline(t, hashFilter{salt: uint64(n)})
		proc, streamed := processorRun(t, pl, st)
		requireSameRun(t, fmt.Sprintf("n=%d", n), proc, streamed, windowsRun(t, pl, st))
	}
}

// TestRunWindowsEmptyWindows is the regression test for the flush-boundary
// panic: an empty window used to be indexed for its first event ID.
func TestRunWindowsEmptyWindows(t *testing.T) {
	p := pattern.MustParse("PATTERN SEQ(A a, B b) WITHIN 5")
	lab, _ := label.New(volSchema, p)
	pl := pipelineFor(t, p, OracleFilter{lab}, smallCfg(5))

	ev := func(id uint64, typ string, vol float64) event.Event {
		return event.Event{ID: id, Type: typ, Attrs: []float64{vol}}
	}
	cases := [][][]event.Event{
		{{ev(1, "A", 1), ev(2, "B", 2)}, {}},                      // trailing empty
		{{}, {ev(1, "A", 1), ev(2, "B", 2)}},                      // leading empty
		{{ev(1, "A", 1)}, {}, {}, {ev(2, "B", 2), ev(3, "A", 3)}}, // interior run of empties
		{{}, {}}, // all empty
		{{ev(1, "A", 1), ev(2, "B", 2)}, {}, {ev(3, "A", 3), ev(4, "B", 4)}}, // sandwiched
	}
	for i, windows := range cases {
		res, err := pl.RunWindows(windows)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res == nil {
			t.Fatalf("case %d: nil result", i)
		}
	}
	// The first case must still find the A→B match.
	res, err := pl.RunWindows(cases[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 1 {
		t.Fatalf("expected 1 match, got %d", len(res.Keys))
	}
}
