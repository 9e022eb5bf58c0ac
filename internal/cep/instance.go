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
	"dlacep/internal/event"
)

// instance is a partial or complete sub-match of one operator subtree.
// Instances are immutable once created; extension always allocates a new
// instance, and only after the extension has passed every check. Events are
// kept sorted by ID (which is also stream order).
type instance struct {
	events []*event.Event
	// bind maps global alias slots to events. Slots of aliases under a
	// Kleene operator are cleared once the iteration's scoped conditions
	// have been checked, so repeated iterations never conflict.
	bind       []*event.Event
	boundSlots []int // indices into bind that are non-nil, ascending
	minID      uint64
	maxID      uint64
	minTs      int64
	maxTs      int64
	// iters counts completed Kleene iterations when the instance belongs to
	// a Kleene store; zero elsewhere.
	iters int
}

func newPrimInstance(e *event.Event, slot int, nSlots int) *instance {
	buf := make([]*event.Event, 1+nSlots)
	inst := &instance{
		events: buf[:1:1],
		bind:   buf[1:],
		minID:  e.ID, maxID: e.ID,
		minTs: e.Ts, maxTs: e.Ts,
	}
	inst.events[0] = e
	inst.bind[slot] = e
	inst.boundSlots = []int{slot}
	return inst
}

// bound reports whether every slot in slots is bound.
func (in *instance) bound(slots []int) bool {
	for _, s := range slots {
		if in.bind[s] == nil {
			return false
		}
	}
	return true
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

// bound reports whether every slot in slots is bound in the candidate.
func (p *pairBinding) bound(slots []int) bool {
	for _, s := range slots {
		if p.at(s) == nil {
			return false
		}
	}
	return true
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
func merge(a, b *instance, ordered bool) *instance {
	n := len(a.events) + len(b.events)
	buf := make([]*event.Event, n+len(a.bind))
	out := &instance{
		events: buf[:0:n],
		bind:   buf[n:],
		minID:  min(a.minID, b.minID), maxID: max(a.maxID, b.maxID),
		minTs: min(a.minTs, b.minTs), maxTs: max(a.maxTs, b.maxTs),
	}
	if ordered {
		out.events = append(append(out.events, a.events...), b.events...)
	} else {
		out.events = mergeByID(out.events, a.events, b.events)
	}
	copy(out.bind, a.bind)
	for _, s := range b.boundSlots {
		out.bind[s] = b.bind[s]
	}
	out.boundSlots = mergeSlots(a.boundSlots, b.boundSlots)
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

func mergeSlots(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// stripSlots clears the given slots from the instance binding (used when a
// Kleene iteration completes). The receiver is freshly allocated by the
// caller's merge, so in-place mutation is safe.
func (in *instance) stripSlots(slots map[int]bool) {
	if len(slots) == 0 {
		return
	}
	kept := in.boundSlots[:0]
	for _, s := range in.boundSlots {
		if slots[s] {
			in.bind[s] = nil
		} else {
			kept = append(kept, s)
		}
	}
	in.boundSlots = kept
}
