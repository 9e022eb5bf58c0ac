// Package cep implements an exact complex event processing (ECEP) engine:
// a streaming, NFA-style evaluator for the pattern language of
// internal/pattern under the skip-till-any-match selection strategy.
//
// The engine maintains, for every operator of the pattern tree, the set of
// partial matches (instances) that may still be extended into full matches —
// exactly the behaviour whose worst-case exponential cost (Section 3.2 of
// the DLACEP paper) motivates approximate CEP. The number of instances
// created is surfaced via Stats so that the complexity model Φ(W, R, SEL)
// can be validated empirically.
package cep

import (
	"math/bits"

	"dlacep/internal/event"
)

// instance is a partial or complete sub-match of one operator subtree.
// Instances are immutable while live; extension always builds a new
// instance, and only after the extension has passed every check. Events are
// kept sorted by ID (which is also stream order).
//
// A merged instance that nothing can reach any more goes back to the
// engine's free list, and a later merge rebuilds it in place. Only a SEQ
// knows when that is safe; seqEval.pruneStores says which instances it
// returns.
type instance struct {
	// buf backs events (its head) and bind (its last nSlots entries).
	buf    []*event.Event
	events []*event.Event
	// bind maps global alias slots to events. Slots of aliases under a
	// Kleene operator are cleared once the iteration's scoped conditions
	// have been checked, so repeated iterations never conflict.
	bind  []*event.Event
	mask  uint64 // bit s set iff bind[s] != nil
	minID uint64
	maxID uint64
	minTs int64
	maxTs int64
	// iters counts completed Kleene iterations when the instance belongs to
	// a Kleene store; zero elsewhere.
	iters int
}

// take returns an instance for a merge of n events, with an empty binding.
// It pops the top of the free list and rebuilds it in place when its
// buffer is big enough; a popped instance that is too small is dropped and
// a new one allocated. A new buffer holds at least nSlots events, which
// every instance outside a Kleene closure fits, so a recycled one almost
// always fits. Every merge pops from a non-empty list, and only merged
// instances are pushed on it, so the list never holds more instances than
// were live at once. The caller sets every other field.
func (sh *shared) take(n int) *instance {
	nSlots := len(sh.c.prims)
	k := len(sh.free) - 1
	if k < 0 {
		return newMergeInstance(n, nSlots)
	}
	out := sh.free[k]
	sh.free[k] = nil
	sh.free = sh.free[:k]
	buf := out.buf
	if len(buf) < n+nSlots {
		return newMergeInstance(n, nSlots)
	}
	clear(buf[n:])
	*out = instance{buf: buf, events: buf[:0:n], bind: buf[len(buf)-nSlots:]}
	return out
}

func newMergeInstance(n, nSlots int) *instance {
	buf := make([]*event.Event, max(n, nSlots)+nSlots)
	return &instance{buf: buf, events: buf[:0:n], bind: buf[len(buf)-nSlots:]}
}

func newPrimInstance(e *event.Event, slot int, nSlots int) *instance {
	buf := make([]*event.Event, 1+nSlots)
	inst := &instance{
		buf:    buf,
		events: buf[:1:1],
		bind:   buf[1:],
		mask:   1 << slot,
		minID:  e.ID, maxID: e.ID,
		minTs: e.Ts, maxTs: e.Ts,
	}
	inst.events[0] = e
	inst.bind[slot] = e
	return inst
}

// pairBinding is the binding of a candidate instance before it exists:
// the merge of a and b (slot s reads a.bind[s], else b.bind[s]) or, when b
// is nil, a primitive instance binding ev to slot. Conditions are checked
// against it, so a candidate that fails one is never built.
type pairBinding struct {
	a, b *instance
	slot int
	ev   *event.Event
}

func (p *pairBinding) at(s int) *event.Event {
	if p.b == nil {
		if s == p.slot {
			return p.ev
		}
		return nil
	}
	if e := p.a.bind[s]; e != nil {
		return e
	}
	return p.b.bind[s]
}

// sharesEvent reports whether two ID-sorted event slices hold a common
// event, which under skip-till-any-match would bind one stream event to two
// pattern slots.
func sharesEvent(a, b []*event.Event) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].ID < b[j].ID:
			i++
		case a[i].ID > b[j].ID:
			j++
		default:
			return true
		}
	}
	return false
}

// merge builds the instance combining a and b, which tryMerge has checked:
// their events are disjoint and they bind disjoint slots. ordered means all
// events of a precede all events of b (SEQ/Kleene iteration ordering);
// otherwise events are interleaved by ID (CONJ).
func (sh *shared) merge(a, b *instance, ordered bool) *instance {
	out := sh.take(len(a.events) + len(b.events))
	if ordered {
		out.events = append(append(out.events, a.events...), b.events...)
	} else {
		out.events = mergeByID(out.events, a.events, b.events)
	}
	copy(out.bind, a.bind)
	for m := b.mask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		out.bind[s] = b.bind[s]
	}
	out.mask = a.mask | b.mask
	out.minID, out.maxID = min(a.minID, b.minID), max(a.maxID, b.maxID)
	out.minTs, out.maxTs = min(a.minTs, b.minTs), max(a.maxTs, b.maxTs)
	return out
}

// mergeByID appends the union of two disjoint ID-sorted event slices to dst
// in ID order.
func mergeByID(dst, a, b []*event.Event) []*event.Event {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].ID < b[j].ID {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// stripSlots clears the slots in mask from the instance binding (used when
// a Kleene iteration completes). The receiver is freshly built by the
// caller's merge, so in-place mutation is safe.
func (in *instance) stripSlots(mask uint64) {
	for m := in.mask & mask; m != 0; m &= m - 1 {
		in.bind[bits.TrailingZeros64(m)] = nil
	}
	in.mask &^= mask
}
