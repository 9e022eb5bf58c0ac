package cep

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dlacep/internal/event"
	"dlacep/internal/pattern"
)

// recycleShapes are the pattern shapes in which an instance is held by more
// than one evaluator or outlives its SEQ store: a Kleene closure (first or
// later child) and a CONJ keep the instances they return in their own
// stores, a nested SEQ feeds its completed instances to the outer SEQ, and
// a trailing negation parks completed matches until their window closes.
// If the free list ever took such an instance, a later merge would
// overwrite a live partial match and the match set would drift from the
// reference.
var recycleShapes = []struct{ name, src string }{
	{"kleene-first", "PATTERN SEQ(KC(A a), B b, C c, D d) WHERE 0.5 * b.vol < d.vol WITHIN 7"},
	{"kleene-middle", "PATTERN SEQ(A a, KC(B b), C c, D d) WHERE 0.5 * a.vol < d.vol WITHIN 7"},
	{"conj-in-seq", "PATTERN SEQ(A a, CONJ(B b, C c), D d, A e) WHERE 0.5 * a.vol < d.vol WITHIN 7"},
	{"nested-seq", "PATTERN SEQ(A a, SEQ(B b, C c), D d) WHERE 0.5 * a.vol < c.vol WITHIN 7"},
	{"nested-seq-first", "PATTERN SEQ(SEQ(A a, B b), C c, D d) WHERE 0.5 * a.vol < d.vol WITHIN 7"},
	{"trailing-neg", "PATTERN SEQ(A a, B b, C c, NEG(D n)) WHERE n.vol > a.vol WITHIN 6"},
}

var recycleTypes = []string{"A", "B", "C", "D"}

// refMatchesWindowed is refMatches for long streams under a count window of
// W and no leading negation: every match, and every negation gap it is
// checked against, lies within the W events starting at its first event, so
// the reference runs once per start position on those W events and keeps
// the matches that start there.
func refMatchesWindowed(p *pattern.Pattern, st *event.Stream) map[string]bool {
	w := int(p.Window.Size)
	out := map[string]bool{}
	for i := range st.Events {
		sub := &event.Stream{Schema: st.Schema, Events: st.Events[i:min(i+w, len(st.Events))]}
		first := strconv.FormatUint(sub.Events[0].ID, 10)
		for k := range refMatches(p, sub) {
			if head, _, _ := strings.Cut(k, ","); head == first {
				out[k] = true
			}
		}
	}
	return out
}

// storesOf appends every instance store of an evaluator tree, in a fixed
// order.
func storesOf(ev evaluator, out [][]*instance) [][]*instance {
	switch ev := ev.(type) {
	case *seqEval:
		for _, st := range ev.stores {
			var ins []*instance
			for _, entry := range st {
				ins = append(ins, entry.inst)
			}
			out = append(out, ins)
		}
		for _, ch := range ev.children {
			out = storesOf(ch, out)
		}
	case *kcEval:
		out = append(out, ev.store)
		out = storesOf(ev.child, out)
	case *conjEval:
		var ins []*instance
		for _, mi := range ev.store {
			ins = append(ins, mi.inst)
		}
		out = append(out, ins)
		for _, ch := range ev.children {
			out = storesOf(ch, out)
		}
	case *disjEval:
		for _, ch := range ev.children {
			out = storesOf(ch, out)
		}
	}
	return out
}

// snap is an instance as a check last saw it.
type snap struct {
	in  *instance
	old instance // shallow copy: the extent canExtend read
	fp  string
}

func snapOf(in *instance) snap {
	var b strings.Builder
	for _, e := range in.events {
		b.WriteString(strconv.FormatUint(e.ID, 10) + ",")
	}
	for _, e := range in.bind {
		if e != nil {
			b.WriteString(strconv.FormatUint(e.ID, 10))
		}
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "%b/%d", in.mask, in.iters)
	return snap{in: in, old: *in, fp: b.String()}
}

// runRecycled runs p over st and returns the match keys and how many events
// reused a pruned instance (shrank the free list, which only merge does).
// After every event it checks the ownership rule directly. Every store
// prunes by the window and then appends, so each store must start with
// exactly its previous entries that the window kept, in order and unchanged;
// an instance recycled while another store still held it shows up there
// rewritten or out of place. Pending matches must be unchanged, no instance
// on the free list may be held anywhere, the list may never hold more
// instances than were held at once, and every emitted match must be
// unchanged at the end of the stream.
func runRecycled(t *testing.T, p *pattern.Pattern, st *event.Stream) (map[string]bool, int) {
	t.Helper()
	en, err := New(p, st.Schema)
	if err != nil {
		t.Fatal(err)
	}
	type emitted struct {
		m    *Match
		key  string
		bind map[string]uint64
	}
	var all []emitted
	add := func(ms []*Match) {
		for _, m := range ms {
			bind := map[string]uint64{}
			for a, e := range m.Binding {
				bind[a] = e.ID
			}
			all = append(all, emitted{m, m.Key(), bind})
		}
	}
	shrinks, peakHeld := 0, 0
	prevStores := make([][]snap, len(storesOf(en.root, nil)))
	prevPending := map[*instance]string{}
	for i := range st.Events {
		before := len(en.sh.free)
		add(en.Process(st.Events[i]))
		if len(en.sh.free) < before {
			shrinks++
		}
		e := &st.Events[i]
		held := map[*instance]bool{}
		for k, cur := range storesOf(en.root, nil) {
			j := 0
			for _, sn := range prevStores[k] {
				if !en.sh.canExtend(&sn.old, e) {
					continue
				}
				if j >= len(cur) || cur[j] != sn.in || snapOf(cur[j]).fp != sn.fp {
					t.Fatalf("%s event %d store %d: kept entry %s missing or rewritten", p, i, k, sn.fp)
				}
				j++
			}
			snaps := make([]snap, len(cur))
			for x, in := range cur {
				snaps[x] = snapOf(in)
				held[in] = true
			}
			prevStores[k] = snaps
		}
		pending := map[*instance]string{}
		for _, pm := range en.sh.pending {
			fp := snapOf(pm.inst).fp
			if old, ok := prevPending[pm.inst]; ok && old != fp {
				t.Fatalf("%s event %d: pending match rewritten from %s to %s", p, i, old, fp)
			}
			pending[pm.inst] = fp
			held[pm.inst] = true
		}
		prevPending = pending
		for _, in := range en.sh.free {
			if held[in] {
				t.Fatalf("%s event %d: held instance %s is on the free list", p, i, snapOf(in).fp)
			}
		}
		peakHeld = max(peakHeld, len(held))
		if len(en.sh.free) > peakHeld {
			t.Fatalf("%s event %d: free list holds %d instances, more than the %d ever held at once", p, i, len(en.sh.free), peakHeld)
		}
	}
	add(en.Flush())
	keys := map[string]bool{}
	for _, em := range all {
		if k := em.m.Key(); k != em.key {
			t.Fatalf("%s: match %s changed to %s after emission", p, em.key, k)
		}
		for a, e := range em.m.Binding {
			if e.ID != em.bind[a] {
				t.Fatalf("%s: match %s rebound %s from %d to %d after emission", p, em.key, a, em.bind[a], e.ID)
			}
		}
		keys[em.key] = true
	}
	return keys, shrinks
}

// TestWindowedReferenceAgrees checks the slicing argument behind
// refMatchesWindowed on streams short enough for the whole-stream oracle.
func TestWindowedReferenceAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range recycleShapes {
		p := pattern.MustParse(sh.src)
		for r := 0; r < 5; r++ {
			st := randStream(rng, 14, recycleTypes)
			if got, want := refMatchesWindowed(p, st), refMatches(p, st); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: windowed %v, whole-stream %v", sh.name, r, got, want)
			}
		}
	}
}

// TestRecyclingMatchesReference runs every recycling-hazard shape over long
// seeded streams, where a small window prunes on every event and the free
// list cycles thousands of times, against the brute-force reference.
func TestRecyclingMatchesReference(t *testing.T) {
	n, seeds := 3000, 3
	if testing.Short() {
		n, seeds = 600, 1
	}
	for _, sh := range recycleShapes {
		p := pattern.MustParse(sh.src)
		for seed := int64(1); seed <= int64(seeds); seed++ {
			st := randStream(rand.New(rand.NewSource(seed)), n, recycleTypes)
			got, shrinks := runRecycled(t, p, st)
			if want := refMatchesWindowed(p, st); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: engine %d matches, reference %d", sh.name, seed, len(got), len(want))
			}
			if len(got) == 0 || shrinks == 0 {
				t.Fatalf("%s seed %d: %d matches, free list reused on %d events; the stream exercises nothing",
					sh.name, seed, len(got), shrinks)
			}
		}
	}
}

// TestFreeListBounded runs patterns whose primitives far outnumber their
// merges: B rarely passes its condition, so most A instances leave the
// window unmerged. The free list must stay within what was ever held at
// once (runRecycled checks it after every event); were unmerged primitive
// instances recycled, only the rare merges would drain it and it would grow
// with the stream. The Kleene case runs long B runs, so closures hold more
// events than the pattern has slots and the merges built on them outgrow
// the buffers on the free list: a merge that finds a too-small buffer on
// top must still shrink the list.
func TestFreeListBounded(t *testing.T) {
	for _, c := range []struct {
		src   string
		types []string
	}{
		{"PATTERN SEQ(A a, B b, C c) WHERE b.vol > 2 WITHIN 6", recycleTypes},
		{"PATTERN SEQ(A a, B b) WHERE b.vol > 2 WITHIN 6", recycleTypes},
		{"PATTERN SEQ(A a, KC(B b), C c, D d) WHERE 0.5 * a.vol < d.vol WITHIN 10",
			[]string{"A", "B", "B", "B", "B", "C", "D"}},
	} {
		p := pattern.MustParse(c.src)
		st := randStream(rand.New(rand.NewSource(9)), 3000, c.types)
		got, _ := runRecycled(t, p, st)
		if want := refMatchesWindowed(p, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: engine %d matches, reference %d", p, len(got), len(want))
		}
		long := 0
		for k := range got {
			if strings.Count(k, ",")+1 > len(p.Prims()) {
				long++
			}
		}
		if strings.Contains(c.src, "KC") && long == 0 {
			t.Fatalf("%v: no match holds more events than the pattern has aliases", p)
		}
	}
}

// TestTakeShrinksFreeList pins what bounds the free list: a merge pops the
// top entry even when its buffer is too small for the merge and allocates
// instead, so merges never leave the list longer than they found it.
func TestTakeShrinksFreeList(t *testing.T) {
	en, err := New(pattern.MustParse("PATTERN SEQ(A a, B b, C c) WITHIN 6"), volSchema)
	if err != nil {
		t.Fatal(err)
	}
	sh := en.sh
	nSlots := len(sh.c.prims)
	fits, small := newMergeInstance(1, nSlots), newMergeInstance(1, nSlots)
	sh.free = append(sh.free, fits, small)

	big := sh.take(nSlots + 1) // needs nSlots+1+nSlots entries; small has 2*nSlots
	if len(sh.free) != 1 || sh.free[0] != fits {
		t.Fatalf("after a too-small top: free list %v, want only the fitting instance", sh.free)
	}
	if big == small || big == fits || len(big.buf) < 2*nSlots+1 {
		t.Fatalf("too-small top was reused (buffer %d entries)", len(big.buf))
	}
	if got := sh.take(2); got != fits || len(sh.free) != 0 {
		t.Fatalf("fitting top not reused: got %p want %p, %d left", got, fits, len(sh.free))
	}
}

// TestNewRejectsTooManyAliases pins the slot-mask bound: an instance keeps
// its bound slots in a uint64, so a pattern may bind at most 64 aliases,
// negated ones included.
func TestNewRejectsTooManyAliases(t *testing.T) {
	seq := func(pos int, neg bool) *pattern.Pattern {
		var ch []*pattern.Node
		for i := 0; i < pos; i++ {
			ch = append(ch, pattern.Prim("p"+strconv.Itoa(i), "A"))
		}
		if neg {
			ch = append(ch[:1], append([]*pattern.Node{pattern.Neg(pattern.Prim("n", "B"))}, ch[1:]...)...)
		}
		return &pattern.Pattern{Name: "wide", Root: pattern.Seq(ch...), Window: pattern.Count(100)}
	}
	cases := []struct {
		name   string
		p      *pattern.Pattern
		reject bool
	}{
		{"64 aliases", seq(64, false), false},
		{"65 aliases", seq(65, false), true},
		{"63 positive + 1 negated", seq(63, true), false},
		{"64 positive + 1 negated", seq(64, true), true},
	}
	for _, c := range cases {
		_, err := New(c.p, volSchema)
		if c.reject != (err != nil) {
			t.Errorf("%s: err = %v, want rejected %v", c.name, err, c.reject)
		}
		if c.reject && !errors.Is(err, ErrTooManyAliases) {
			t.Errorf("%s: err = %v, want ErrTooManyAliases", c.name, err)
		}
	}
}
