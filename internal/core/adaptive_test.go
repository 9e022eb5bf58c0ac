package core

import (
	"reflect"
	"testing"

	"dlacep/internal/cep"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/pattern"
	"dlacep/internal/shed"
)

// The adaptive differential suite: with the level board pinned at each
// rung, the AdaptiveProcessor must be decision-identical to the static
// configuration that rung interpolates — exact engines (cep.Run /
// RunECEP), the standard filtered Processor, and processor+shedder at the
// same ratio. This is the acceptance guarantee that makes live degradation
// trustworthy: the controller only ever moves between behaviors that are
// individually proven.

// runAdaptive streams st through a fresh AdaptiveProcessor on pl.
func runAdaptive(t *testing.T, pl *Pipeline, board *LevelBoard, gates []Gate, st *event.Stream) (*Result, []*cep.Match) {
	t.Helper()
	proc, err := pl.NewAdaptiveProcessor(board, gates)
	if err != nil {
		t.Fatal(err)
	}
	var out []*cep.Match
	for i := range st.Events {
		ms, err := proc.Push(st.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ms...)
	}
	ms, err := proc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return proc.Result(), append(out, ms...)
}

// shedReference replays a captured relay stream through a fresh seeded
// shedder and engine per pattern — the static "processor + shedder"
// configuration LevelShed must reproduce decision-for-decision.
func shedReference(t *testing.T, pats []*pattern.Pattern, relayStream []event.Event, ratio float64, seed int64) []map[string]bool {
	t.Helper()
	keys := make([]map[string]bool, len(pats))
	for i, p := range pats {
		en, err := cep.New(p, volSchema)
		if err != nil {
			t.Fatal(err)
		}
		s := shed.NewRandom(ratio, seed+int64(i))
		keys[i] = map[string]bool{}
		for ei := range relayStream {
			if !s.Keep(&relayStream[ei]) {
				continue
			}
			for _, m := range en.Process(relayStream[ei]) {
				keys[i][m.Key()] = true
			}
		}
		for _, m := range en.Flush() {
			keys[i][m.Key()] = true
		}
	}
	return keys
}

// captureRelays runs the plain Processor over st and returns the relay
// stream the pipeline produced, via the OnRelay tap.
func captureRelays(t *testing.T, filter EventFilter, st *event.Stream) []event.Event {
	t.Helper()
	pl := multiPipeline(t, filter)
	var relays []event.Event
	pl.OnRelay = func(batch []event.Event) { relays = append(relays, batch...) }
	if _, err := pl.Run(st); err != nil {
		t.Fatal(err)
	}
	return relays
}

func adaptiveGates(n int, ratio float64, seed int64) []Gate {
	gates := make([]Gate, n)
	for i := range gates {
		gates[i] = shed.NewRandom(ratio, seed+int64(i))
	}
	return gates
}

func TestAdaptivePinnedExactMatchesECEP(t *testing.T) {
	st := dataset.Synthetic(600, 4, 31)
	pl := multiPipeline(t, hashFilter{salt: 5})
	pl.TrackKeys = true
	board := NewLevelBoard(3)
	board.Pin(LevelExact)
	res, _ := runAdaptive(t, pl, board, nil, st)

	want, err := RunECEP(volSchema, pl.pats, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Keys, want.Keys) {
		t.Errorf("pinned-exact keys (%d) differ from ECEP (%d)", len(res.Keys), len(want.Keys))
	}
	if !reflect.DeepEqual(res.KeysByPattern, want.KeysByPattern) {
		t.Error("pinned-exact per-pattern keys differ from ECEP")
	}
	if res.EventsRelayed != 0 {
		t.Errorf("pinned-exact relayed %d events through the filter path", res.EventsRelayed)
	}
}

func TestAdaptivePinnedFilteredMatchesProcessor(t *testing.T) {
	st := dataset.Synthetic(600, 4, 32)
	filter := hashFilter{salt: 9}
	pl := multiPipeline(t, filter)
	pl.TrackKeys = true
	board := NewLevelBoard(3) // NewLevelBoard starts at LevelFiltered
	res, _ := runAdaptive(t, pl, board, nil, st)

	ref := multiPipeline(t, filter)
	ref.TrackKeys = true
	want, err := ref.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Keys, want.Keys) {
		t.Errorf("pinned-filtered keys (%d) differ from Pipeline.Run (%d)", len(res.Keys), len(want.Keys))
	}
	if !reflect.DeepEqual(res.KeysByPattern, want.KeysByPattern) {
		t.Error("pinned-filtered per-pattern keys differ from Pipeline.Run")
	}
	if res.EventsRelayed != want.EventsRelayed || res.EventsTotal != want.EventsTotal {
		t.Errorf("counts differ: relayed %d/%d total %d/%d",
			res.EventsRelayed, want.EventsRelayed, res.EventsTotal, want.EventsTotal)
	}
}

func TestAdaptivePinnedShedMatchesStaticShed(t *testing.T) {
	const (
		ratio = 0.4
		seed  = 99
	)
	st := dataset.Synthetic(600, 4, 33)
	filter := hashFilter{salt: 3}
	pl := multiPipeline(t, filter)
	pl.TrackKeys = true
	board := NewLevelBoard(3)
	board.Pin(LevelShed)
	for i := 0; i < 3; i++ {
		board.SetShedRatio(i, ratio)
	}
	res, _ := runAdaptive(t, pl, board, adaptiveGates(3, 0, seed), st)

	relays := captureRelays(t, filter, st)
	want := shedReference(t, pl.pats, relays, ratio, seed)
	if !reflect.DeepEqual(res.KeysByPattern, want) {
		t.Error("pinned-shed per-pattern keys differ from processor+shedder reference")
	}
}

// TestAdaptiveMixedLevelsIndependent pins each pattern on a different rung
// and checks every pattern against its own static reference — per-pattern
// independence, the property that lets the controller degrade one hot
// pattern without touching the others.
func TestAdaptiveMixedLevelsIndependent(t *testing.T) {
	const (
		ratio = 0.3
		seed  = 7
	)
	st := dataset.Synthetic(600, 4, 34)
	filter := hashFilter{salt: 11}
	pl := multiPipeline(t, filter)
	pl.TrackKeys = true
	board := NewLevelBoard(3)
	board.SetLevel(0, LevelExact)
	board.SetLevel(1, LevelFiltered)
	board.SetLevel(2, LevelShed)
	board.SetShedRatio(2, ratio)
	res, _ := runAdaptive(t, pl, board, adaptiveGates(3, 0, seed), st)

	ecep, err := RunECEP(volSchema, pl.pats, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.KeysByPattern[0], ecep.KeysByPattern[0]) {
		t.Error("exact-rung pattern differs from its ECEP reference")
	}

	ref := multiPipeline(t, filter)
	ref.TrackKeys = true
	filtered, err := ref.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.KeysByPattern[1], filtered.KeysByPattern[1]) {
		t.Error("filtered-rung pattern differs from its Pipeline.Run reference")
	}

	relays := captureRelays(t, filter, st)
	shedKeys := shedReference(t, pl.pats, relays, ratio, seed)[2]
	if !reflect.DeepEqual(res.KeysByPattern[2], shedKeys) {
		t.Error("shed-rung pattern differs from its processor+shedder reference")
	}
}

func TestLevelBoardClampsAndSnapshots(t *testing.T) {
	b := NewLevelBoard(2)
	if b.MaxLevel() != LevelFiltered {
		t.Errorf("fresh board max level = %v, want filtered", b.MaxLevel())
	}
	b.SetLevel(0, Level(99))
	if b.Level(0) != LevelShed {
		t.Errorf("over-ladder level stored as %v", b.Level(0))
	}
	b.SetLevel(0, Level(-4))
	if b.Level(0) != LevelExact {
		t.Errorf("negative level stored as %v", b.Level(0))
	}
	b.SetShedRatio(1, 2.0)
	if b.ShedRatio(1) != 1 {
		t.Errorf("ratio 2.0 stored as %v", b.ShedRatio(1))
	}
	b.SetShedRatio(1, -1)
	if b.ShedRatio(1) != 0 {
		t.Errorf("ratio -1 stored as %v", b.ShedRatio(1))
	}
	b.SetLevel(1, LevelShed)
	if got := b.Levels(); got[0] != LevelExact || got[1] != LevelShed {
		t.Errorf("Levels() = %v", got)
	}
	if b.MaxLevel() != LevelShed {
		t.Errorf("max level = %v, want shed", b.MaxLevel())
	}
	for _, tc := range []struct {
		l    Level
		want string
	}{{LevelExact, "exact"}, {LevelFiltered, "filtered"}, {LevelShed, "shed"}, {Level(9), "level(9)"}} {
		if got := tc.l.String(); got != tc.want {
			t.Errorf("Level(%d).String() = %q, want %q", tc.l, got, tc.want)
		}
	}
}

// FuzzAdaptiveEquivalence fuzzes stream shape, filter salt, pinned level,
// and shed ratio, and checks the pinned AdaptiveProcessor against the
// matching static reference.
func FuzzAdaptiveEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(120), uint64(3), uint8(0), uint8(0))
	f.Add(int64(2), uint16(80), uint64(5), uint8(1), uint8(128))
	f.Add(int64(-9), uint16(260), uint64(7), uint8(2), uint8(200))
	f.Add(int64(17), uint16(1), uint64(0), uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, salt uint64, lvl uint8, rat uint8) {
		length := int(n)%400 + 1
		level := Level(int(lvl) % 3)
		ratio := float64(rat) / 256
		st := dataset.Synthetic(length, 4, seed)
		filter := hashFilter{salt: salt}

		pl := multiPipeline(t, filter)
		pl.TrackKeys = true
		board := NewLevelBoard(3)
		board.Pin(level)
		for i := 0; i < 3; i++ {
			board.SetShedRatio(i, ratio)
		}
		res, _ := runAdaptive(t, pl, board, adaptiveGates(3, 0, seed), st)

		var want []map[string]bool
		switch level {
		case LevelExact:
			ecep, err := RunECEP(volSchema, pl.pats, st)
			if err != nil {
				t.Fatal(err)
			}
			want = ecep.KeysByPattern
		case LevelFiltered:
			ref := multiPipeline(t, filter)
			ref.TrackKeys = true
			run, err := ref.Run(st)
			if err != nil {
				t.Fatal(err)
			}
			want = run.KeysByPattern
		case LevelShed:
			want = shedReference(t, pl.pats, captureRelays(t, filter, st), ratio, seed)
		}
		if !reflect.DeepEqual(res.KeysByPattern, want) {
			t.Fatalf("level %v ratio %.3f: per-pattern keys differ from static reference", level, ratio)
		}
	})
}
