package cep

// Randomized pattern-level fuzzing: generate random (valid) patterns and
// random streams, then cross-check the streaming engine against the
// brute-force reference. This complements the targeted cross-checks in
// cep_test.go with coverage of operator combinations no hand-written case
// anticipates.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dlacep/internal/pattern"
)

// genPattern builds a random valid pattern: a SEQ of 2-4 children drawn
// from {prim, KC(prim), DISJ(prim, prim), NEG(prim) mid-sequence, nested
// SEQ}, with random ratio conditions over non-Kleene aliases.
func genPattern(rng *rand.Rand, types []string) *pattern.Pattern {
	aliasN := 0
	newAlias := func() string {
		aliasN++
		return string(rune('a'+aliasN-1)) + "x"
	}
	prim := func() *pattern.Node {
		return pattern.Prim(newAlias(), types[rng.Intn(len(types))])
	}
	var plain []string  // aliases usable in global conditions
	var negged []string // aliases under NEG

	n := 2 + rng.Intn(3)
	var children []*pattern.Node
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.5:
			p := prim()
			plain = append(plain, p.Alias)
			children = append(children, p)
		case r < 0.65:
			p := prim()
			children = append(children, pattern.KC(p))
		case r < 0.8:
			p1, p2 := prim(), prim()
			plain = append(plain, p1.Alias, p2.Alias)
			children = append(children, pattern.Disj(p1, p2))
		case r < 0.9 && i > 0 && i < n-1:
			p := prim()
			negged = append(negged, p.Alias)
			children = append(children, pattern.Neg(p))
		default:
			p1, p2 := prim(), prim()
			plain = append(plain, p1.Alias, p2.Alias)
			children = append(children, pattern.Seq(p1, p2))
		}
	}
	// ensure at least one positive primitive
	hasPos := false
	for _, c := range children {
		if c.Kind != pattern.KindNeg {
			hasPos = true
		}
	}
	if !hasPos {
		p := prim()
		plain = append(plain, p.Alias)
		children = append(children, p)
	}

	var conds []pattern.Condition
	ref := func(a string) pattern.Ref { return pattern.Ref{Alias: a, Attr: "vol"} }
	if len(plain) >= 2 && rng.Float64() < 0.7 {
		a, b := plain[rng.Intn(len(plain))], plain[rng.Intn(len(plain))]
		if a != b {
			conds = append(conds, pattern.Ratio(0.2+rng.Float64(), ref(a), ref(b), math.Inf(1)))
		}
	}
	if len(negged) > 0 && len(plain) > 0 && rng.Float64() < 0.5 {
		conds = append(conds, pattern.Cmp{X: ref(negged[0]), Op: "<", Y: ref(plain[0])})
	}
	w := 4 + rng.Intn(5)
	p := &pattern.Pattern{Name: "fuzz", Root: pattern.Seq(children...),
		Where: conds, Window: pattern.Count(w)}
	if err := p.Validate(); err != nil {
		panic("generator produced invalid pattern: " + err.Error())
	}
	return p
}

func TestFuzzEngineAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	types := []string{"A", "B", "C", "D"}
	patterns, streams := 25, 6
	if testing.Short() {
		patterns, streams = 8, 3
	}
	for pi := 0; pi < patterns; pi++ {
		p := genPattern(rng, types)
		// skip pathological generations the reference can't enumerate fast
		if len(p.Prims()) > 7 {
			continue
		}
		for si := 0; si < streams; si++ {
			st := randStream(rng, 12, types)
			ms, _, err := Run(p, st)
			if err != nil {
				t.Fatalf("pattern %v: %v", p, err)
			}
			got := Keys(ms)
			want := refMatches(p, st)
			if !reflect.DeepEqual(got, want) {
				var evs []string
				for _, e := range st.Events {
					evs = append(evs, e.Type)
				}
				t.Fatalf("pattern %v\nstream %v\n got %v\nwant %v", p, evs, got, want)
			}
		}
	}
}

// TestFuzzNoFalseWindowViolations checks a structural invariant on every
// emitted match across random patterns: the ID span respects the window and
// all events are distinct.
func TestFuzzMatchInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := []string{"A", "B", "C"}
	for pi := 0; pi < 15; pi++ {
		p := genPattern(rng, types)
		st := randStream(rng, 30, types)
		ms, _, err := Run(p, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			ids := m.IDs()
			if len(ids) == 0 {
				t.Fatal("empty match")
			}
			span := ids[len(ids)-1] - ids[0]
			if span > uint64(p.Window.Size)-1 {
				t.Fatalf("pattern %v: match %v spans %d > W-1", p, ids, span)
			}
			seen := map[uint64]bool{}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("pattern %v: duplicate event in match %v", p, ids)
				}
				seen[id] = true
			}
		}
	}
}

// FuzzRecyclingShapes runs one recycling-hazard shape of recycle_test.go
// over a seeded random stream, against the windowed reference and under
// runRecycled's ownership checks. The seed corpus covers every shape.
func FuzzRecyclingShapes(f *testing.F) {
	for i := range recycleShapes {
		f.Add(uint8(i), int64(i+1))
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed int64) {
		p := pattern.MustParse(recycleShapes[int(shape)%len(recycleShapes)].src)
		st := randStream(rand.New(rand.NewSource(seed)), 200, recycleTypes)
		got, _ := runRecycled(t, p, st)
		if want := refMatchesWindowed(p, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v seed %d: engine %d matches, reference %d", p, seed, len(got), len(want))
		}
	})
}
