package cep

import (
	"reflect"
	"testing"

	"dlacep/internal/event"
	"dlacep/internal/pattern"
)

// TestRejectedMergeAllocatesNothing pins the check-before-build rule: a
// candidate rejected by ID order, a shared event, the window, a failing
// cross-alias condition, or (for a primitive) a failing single-alias
// condition allocates nothing. Only survivors are built.
func TestRejectedMergeAllocatesNothing(t *testing.T) {
	p := pattern.MustParse("PATTERN SEQ(A a, B b) WHERE a.vol < b.vol AND b.vol > 0 WITHIN 3")
	en, err := New(p, volSchema)
	if err != nil {
		t.Fatal(err)
	}
	sh := en.sh
	sa, sb, n := sh.c.slotOf["a"], sh.c.slotOf["b"], len(sh.c.prims)
	ev := func(id uint64, vol float64) *event.Event {
		return &event.Event{ID: id, Ts: int64(id), Attrs: []float64{vol}}
	}
	a1 := newPrimInstance(ev(1, 5), sa, n)
	bLate := newPrimInstance(ev(10, 9), sb, n)
	bLow := newPrimInstance(ev(2, 1), sb, n)
	bOK := newPrimInstance(ev(2, 9), sb, n)
	bSame := newPrimInstance(a1.events[0], sb, n) // a1's event bound to b

	rejects := []struct {
		name string
		a, b *instance
		ord  bool
	}{
		{"id order", bOK, a1, true},
		{"shared event", a1, bSame, false},
		{"window", a1, bLate, true},
		{"condition", a1, bLow, true},
	}
	for _, r := range rejects {
		if got := testing.AllocsPerRun(100, func() {
			if sh.tryMerge(r.a, r.b, r.ord) != nil {
				t.Fatalf("%s: merge survived", r.name)
			}
		}); got != 0 {
			t.Errorf("%s: rejected merge allocates %v times, want 0", r.name, got)
		}
	}

	prim := &primEval{sh: sh, node: p.Root.Children[1], slot: sb, nSlots: n}
	neg := &event.Event{ID: 3, Ts: 3, Type: "B", Attrs: []float64{-1}}
	if got := testing.AllocsPerRun(100, func() {
		if prim.process(neg) != nil {
			t.Fatal("primitive failing b.vol > 0 survived")
		}
	}); got != 0 {
		t.Errorf("rejected primitive allocates %v times, want 0", got)
	}

	before := sh.stats.Instances
	m := sh.tryMerge(a1, bOK, true)
	if m == nil {
		t.Fatal("valid merge rejected")
	}
	if sh.stats.Instances != before+1 {
		t.Errorf("survivor counted %d instances, want 1", sh.stats.Instances-before)
	}
	if m.bind[sa] != a1.events[0] || m.bind[sb] != bOK.events[0] || m.mask != 1<<sa|1<<sb {
		t.Errorf("survivor binding wrong: bind=%v mask=%b", m.bind, m.mask)
	}
	if m.minID != 1 || m.maxID != 2 || len(m.events) != 2 {
		t.Errorf("survivor extent wrong: [%d,%d] events=%d", m.minID, m.maxID, len(m.events))
	}
}

// TestMatchIDsSortsHandBuiltMatches covers matches built outside the NFA
// (zstream, lazy and the ablation harness assemble Events out of ID
// order): IDs must come back sorted and Key must not depend on the order.
func TestMatchIDsSortsHandBuiltMatches(t *testing.T) {
	evs := []*event.Event{{ID: 42}, {ID: 7}, {ID: 19}, {ID: 3}}
	m := &Match{Events: evs}
	if got, want := m.IDs(), []uint64{3, 7, 19, 42}; !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
	sorted := &Match{Events: []*event.Event{evs[3], evs[1], evs[2], evs[0]}}
	if m.Key() != sorted.Key() || m.Key() != "3,7,19,42" {
		t.Errorf("Key() = %q for out-of-order, %q for sorted; want 3,7,19,42", m.Key(), sorted.Key())
	}
	if evs[0].ID != 42 {
		t.Error("IDs() reordered the match's Events")
	}
}
