package core

import (
	"reflect"
	"sort"
	"testing"

	"dlacep/internal/cep"
	"dlacep/internal/event"
)

// mergeMatchesByKeyCalls is mergeMatches as it was before keys were carried
// with the matches: Key() recomputed for the dedup and inside every sort
// comparison. The keyed version must reproduce its output exactly.
func mergeMatchesByKeyCalls(perEngine [][]*cep.Match, seen map[string]bool) []*cep.Match {
	var out []*cep.Match
	for _, ms := range perEngine {
		for _, m := range ms {
			if k := m.Key(); !seen[k] {
				seen[k] = true
				out = append(out, m)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func TestMergeMatchesKeysOnce(t *testing.T) {
	mk := func(ids ...uint64) *cep.Match {
		m := &cep.Match{}
		for _, id := range ids {
			m.Events = append(m.Events, &event.Event{ID: id})
		}
		return m
	}
	a, b, c := mk(9, 12), mk(10, 11), mk(2, 30)
	aAgain := mk(12, 9) // a's key, a different match value, events out of order
	cases := []struct {
		name      string
		perEngine [][]*cep.Match
		seen      []string
	}{
		{"empty", nil, nil},
		{"one engine, string order", [][]*cep.Match{{a, b, c}}, nil},
		{"duplicate within an engine", [][]*cep.Match{{b, a, b}}, nil},
		{"duplicate across engines, first engine wins", [][]*cep.Match{{c, a}, {aAgain, b}}, nil},
		{"later engine first to emit", [][]*cep.Match{nil, {aAgain}, {a, c}}, nil},
		{"already seen", [][]*cep.Match{{a, b}, {c}}, []string{"10,11", "2,30"}},
	}
	for _, tc := range cases {
		seenWant, seenGot := map[string]bool{}, map[string]bool{}
		for _, k := range tc.seen {
			seenWant[k], seenGot[k] = true, true
		}
		want := mergeMatchesByKeyCalls(tc.perEngine, seenWant)
		perEngine := make([][]keyedMatch, len(tc.perEngine))
		for i, ms := range tc.perEngine {
			perEngine[i] = keyed(ms)
		}
		got := mergeMatches(perEngine, seenGot)
		if len(got) != len(want) {
			t.Fatalf("%s: %d matches, want %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i].m != want[i] || got[i].key != want[i].Key() {
				t.Errorf("%s: match %d = %s (%p), want %s (%p)", tc.name, i, got[i].key, got[i].m, want[i].Key(), want[i])
			}
		}
		if !reflect.DeepEqual(seenGot, seenWant) {
			t.Errorf("%s: seen = %v, want %v", tc.name, seenGot, seenWant)
		}
	}
}
