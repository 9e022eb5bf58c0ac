package cep

import (
	"fmt"

	"dlacep/internal/event"
	"dlacep/internal/pattern"
)

// shared is the per-engine mutable state threaded through all evaluators.
type shared struct {
	c     *compiled
	stats Stats
	// cand is the binding of the candidate instance under check and look its
	// pattern.Lookup, bound once by New so evaluating a condition allocates
	// nothing.
	cand pairBinding
	look pattern.Lookup
	// negBuf holds recent events of types relevant to negation validation,
	// pruned to the current window extent.
	negBuf []*event.Event
	// pending holds completed matches awaiting window closure because the
	// pattern has a trailing negation.
	pending []pendingMatch
}

func newShared(c *compiled) *shared {
	sh := &shared{c: c}
	sh.look = sh.candLookup
	return sh
}

// candLookup resolves an alias against the candidate binding.
func (sh *shared) candLookup(alias string) (*event.Event, bool) {
	s, ok := sh.c.slotOf[alias]
	if !ok {
		return nil, false
	}
	e := sh.cand.at(s)
	return e, e != nil
}

type pendingMatch struct {
	inst    *instance
	spec    *negSpec
	gapLoID uint64 // exclusive lower bound (ID of last positive event)
	closeID uint64 // inclusive last ID of the match's window
	closeTs int64
}

// window geometry helpers ----------------------------------------------------

// mergedFits reports whether the merge of a and b would lie within one
// window.
func (sh *shared) mergedFits(a, b *instance) bool {
	w := sh.c.pat.Window
	if w.Kind == pattern.CountWindow {
		return max(a.maxID, b.maxID)-min(a.minID, b.minID) <= uint64(w.Size)-1
	}
	return max(a.maxTs, b.maxTs)-min(a.minTs, b.minTs) <= w.Size
}

// canExtend reports whether in could still combine with the current event e
// (or any later one) without violating the window.
func (sh *shared) canExtend(in *instance, e *event.Event) bool {
	w := sh.c.pat.Window
	if w.Kind == pattern.CountWindow {
		return e.ID-in.minID <= uint64(w.Size)-1
	}
	return e.Ts-in.minTs <= w.Size
}

// primOK evaluates the single-alias conditions of slot (absolute ranges)
// against e bound alone, before any instance for it is built.
func (sh *shared) primOK(slot int, e *event.Event) bool {
	sh.cand = pairBinding{slot: slot, ev: e}
	for _, pc := range sh.c.condsBySlot[slot] {
		if len(pc.slots) == 1 && !pc.pred(sh.c.schema, sh.look) {
			return false
		}
	}
	return true
}

// tryMerge merges two instances, enforcing window bounds and evaluating
// every condition that becomes newly checkable. Returns nil if the merge is
// structurally impossible or a condition fails. Every check reads the two
// parents, so a rejected merge allocates nothing; conditions run on the same
// candidates in the same order as they would on a built instance, which
// keeps Stats and every condition's Obs counts independent of when the
// instance is built.
func (sh *shared) tryMerge(a, b *instance, ordered bool) *instance {
	if ordered && a.maxID >= b.minID {
		return nil
	}
	if !ordered && sharesEvent(a.events, b.events) {
		return nil
	}
	for _, s := range b.boundSlots {
		if a.bind[s] != nil {
			return nil // same alias bound twice: impossible by construction
		}
	}
	if !sh.mergedFits(a, b) {
		return nil
	}
	// Conditions spanning the merge boundary become checkable now.
	sh.cand = pairBinding{a: a, b: b}
	for _, s := range b.boundSlots {
		for _, pc := range sh.c.condsBySlot[s] {
			if len(pc.slots) == 1 {
				continue // checked at prim-instance creation
			}
			if !sh.cand.bound(pc.slots) || a.bound(pc.slots) || b.bound(pc.slots) {
				continue
			}
			if !pc.pred(sh.c.schema, sh.look) {
				return nil
			}
		}
	}
	sh.stats.Instances++
	return merge(a, b, ordered)
}

// evaluator is one operator of the compiled pattern tree. process consumes
// the next stream event and returns the completed instances of this subtree
// that end at (or were unlocked by) this event.
type evaluator interface {
	process(e *event.Event) []*instance
}

// buildEval compiles a pattern node into its evaluator. root indicates the
// top-level node, which alone may carry leading/trailing negations.
func buildEval(sh *shared, n *pattern.Node, root bool) (evaluator, error) {
	switch n.Kind {
	case pattern.KindPrim:
		return &primEval{sh: sh, node: n, slot: sh.c.slotOf[n.Alias], nSlots: len(sh.c.prims)}, nil
	case pattern.KindSeq:
		return buildSeq(sh, n, root)
	case pattern.KindConj:
		if len(n.Children) > 64 {
			return nil, fmt.Errorf("cep: CONJ with more than 64 children is not supported")
		}
		ev := &conjEval{sh: sh, full: uint64(1)<<len(n.Children) - 1}
		for _, ch := range n.Children {
			ce, err := buildEval(sh, ch, false)
			if err != nil {
				return nil, err
			}
			ev.children = append(ev.children, ce)
		}
		return ev, nil
	case pattern.KindDisj:
		ev := &disjEval{}
		for _, ch := range n.Children {
			ce, err := buildEval(sh, ch, false)
			if err != nil {
				return nil, err
			}
			ev.children = append(ev.children, ce)
		}
		return ev, nil
	case pattern.KindKleene:
		ce, err := buildEval(sh, n.Children[0], false)
		if err != nil {
			return nil, err
		}
		return &kcEval{sh: sh, child: ce, min: n.KMin, max: n.KMax, strip: sh.c.kcSlots[n]}, nil
	case pattern.KindNeg:
		return nil, fmt.Errorf("cep: NEG cannot be evaluated standalone")
	default:
		return nil, fmt.Errorf("cep: unknown node kind %v", n.Kind)
	}
}

// primEval -------------------------------------------------------------------

type primEval struct {
	sh     *shared
	node   *pattern.Node
	slot   int
	nSlots int
}

func (p *primEval) process(e *event.Event) []*instance {
	if e.IsBlank() || !p.node.AcceptsType(e.Type) || !p.sh.primOK(p.slot, e) {
		return nil
	}
	p.sh.stats.Instances++
	return []*instance{newPrimInstance(e, p.slot, p.nSlots)}
}

// seqEval ---------------------------------------------------------------------

// seqEntry is one partial match of a SEQ prefix, annotated with the extent
// of each positive child's sub-instance. Only negation gaps read the
// extents, so a SEQ without negation leaves ext nil.
type seqEntry struct {
	inst *instance
	ext  []seqExt
}

// seqExt is the ID extent of one positive child's sub-instance.
type seqExt struct {
	start, end uint64
}

type seqEval struct {
	sh       *shared
	children []evaluator // positive children, in order
	stores   [][]seqEntry
	negs     []negSpec
	trailing *negSpec // negation after the last positive child (root only)
	leading  *negSpec // negation before the first positive child (root only)
	root     bool
}

func buildSeq(sh *shared, n *pattern.Node, root bool) (*seqEval, error) {
	ev := &seqEval{sh: sh, root: root}
	// Split children into positives and negation specs.
	posIdx := -1
	var pendingNegs []*pattern.Node // negs waiting for their next positive
	attach := func(neg *pattern.Node, prev, next int) error {
		comp := neg.Children[0]
		spec := negSpec{
			component: comp,
			prevIdx:   prev,
			nextIdx:   next,
			conds:     sh.c.negConds[neg],
			prims:     comp.Prims(),
		}
		switch {
		case prev == -1 && next == 0:
			if !root {
				return fmt.Errorf("cep: leading negation allowed only at the top-level SEQ")
			}
			if ev.leading != nil {
				return fmt.Errorf("cep: multiple leading negations are not supported")
			}
			ev.leading = &spec
		case next == -2: // trailing, patched below
			if !root {
				return fmt.Errorf("cep: trailing negation allowed only at the top-level SEQ")
			}
			if ev.trailing != nil {
				return fmt.Errorf("cep: multiple trailing negations are not supported")
			}
			ev.trailing = &spec
		default:
			ev.negs = append(ev.negs, spec)
		}
		return nil
	}
	for _, ch := range n.Children {
		if ch.Kind == pattern.KindNeg {
			pendingNegs = append(pendingNegs, ch)
			continue
		}
		ce, err := buildEval(sh, ch, false)
		if err != nil {
			return nil, err
		}
		posIdx++
		for _, neg := range pendingNegs {
			if err := attach(neg, posIdx-1, posIdx); err != nil {
				return nil, err
			}
		}
		pendingNegs = pendingNegs[:0]
		ev.children = append(ev.children, ce)
	}
	for _, neg := range pendingNegs {
		if err := attach(neg, posIdx, -2); err != nil {
			return nil, err
		}
	}
	if len(ev.children) == 0 {
		return nil, fmt.Errorf("cep: SEQ consists only of negations")
	}
	if ev.trailing != nil {
		ev.trailing.nextIdx = len(ev.children)
	}
	ev.stores = make([][]seqEntry, len(ev.children)-1)
	return ev, nil
}

func (s *seqEval) process(e *event.Event) []*instance {
	s.pruneStores(e)
	var completed []*instance
	last := len(s.children) - 1
	for i := last; i >= 0; i-- {
		news := s.children[i].process(e)
		if len(news) == 0 {
			continue
		}
		for _, nw := range news {
			if i == 0 {
				entry := seqEntry{inst: nw, ext: s.extend(nil, 0, nw)}
				if last == 0 {
					completed = s.finish(completed, entry)
				} else {
					s.stores[0] = append(s.stores[0], entry)
				}
				continue
			}
			for _, prev := range s.stores[i-1] {
				merged := s.sh.tryMerge(prev.inst, nw, true)
				if merged == nil {
					continue
				}
				entry := seqEntry{inst: merged, ext: s.extend(prev.ext, i, nw)}
				if i == last {
					completed = s.finish(completed, entry)
				} else {
					s.stores[i] = append(s.stores[i], entry)
				}
			}
		}
	}
	return completed
}

// extend returns prev's extents with child i's set to nw's, or nil when the
// SEQ has no negation to bound.
func (s *seqEval) extend(prev []seqExt, i int, nw *instance) []seqExt {
	if len(s.negs) == 0 && s.leading == nil && s.trailing == nil {
		return nil
	}
	ext := make([]seqExt, len(s.children))
	copy(ext, prev)
	ext[i] = seqExt{start: nw.minID, end: nw.maxID}
	return ext
}

// finish validates negations of a structurally complete entry and either
// appends the instance to out, parks it as pending (trailing negation), or
// drops it.
func (s *seqEval) finish(out []*instance, entry seqEntry) []*instance {
	for i := range s.negs {
		spec := &s.negs[i]
		lo := entry.ext[spec.prevIdx].end   // exclusive
		hi := entry.ext[spec.nextIdx].start // exclusive
		if s.sh.negOccurs(spec, entry.inst, lo, hi) {
			return out
		}
	}
	if s.leading != nil && s.sh.negOccursLeading(s.leading, entry.inst, entry.ext[0].start) {
		return out
	}
	if s.trailing != nil {
		if !s.root {
			//dlacep:ignore libpanic unreachable: compile validates negation placement before evaluation
			panic("cep: trailing negation outside root")
		}
		w := s.sh.c.pat.Window
		pm := pendingMatch{inst: entry.inst, spec: s.trailing, gapLoID: entry.ext[len(s.children)-1].end}
		if w.Kind == pattern.CountWindow {
			pm.closeID = entry.inst.minID + uint64(w.Size) - 1
		} else {
			pm.closeTs = entry.inst.minTs + w.Size
		}
		s.sh.pending = append(s.sh.pending, pm)
		return out
	}
	return append(out, entry.inst)
}

func (s *seqEval) pruneStores(e *event.Event) {
	for i, store := range s.stores {
		kept := store[:0]
		for _, entry := range store {
			if s.sh.canExtend(entry.inst, e) {
				kept = append(kept, entry)
			}
		}
		s.stores[i] = kept
	}
}

// conjEval ---------------------------------------------------------------------

type maskedInst struct {
	inst *instance
	mask uint64
}

type conjEval struct {
	sh       *shared
	children []evaluator
	store    []maskedInst
	full     uint64
}

func (c *conjEval) process(e *event.Event) []*instance {
	kept := c.store[:0]
	for _, mi := range c.store {
		if c.sh.canExtend(mi.inst, e) {
			kept = append(kept, mi)
		}
	}
	c.store = kept

	var completed []*instance
	base := len(c.store) // merges only against pre-event store, so one event fills one slot
	for i, ch := range c.children {
		bit := uint64(1) << i
		for _, nw := range ch.process(e) {
			if c.full == bit {
				completed = append(completed, nw)
				continue
			}
			c.store = append(c.store, maskedInst{nw, bit})
			for _, mi := range c.store[:base] {
				if mi.mask&bit != 0 {
					continue
				}
				merged := c.sh.tryMerge(mi.inst, nw, false)
				if merged == nil {
					continue
				}
				mask := mi.mask | bit
				if mask == c.full {
					completed = append(completed, merged)
				} else {
					c.store = append(c.store, maskedInst{merged, mask})
				}
			}
		}
	}
	return completed
}

// disjEval ---------------------------------------------------------------------

type disjEval struct {
	children []evaluator
}

func (d *disjEval) process(e *event.Event) []*instance {
	var out []*instance
	for _, ch := range d.children {
		out = append(out, ch.process(e)...)
	}
	return out
}

// kcEval -------------------------------------------------------------------

type kcEval struct {
	sh    *shared
	child evaluator
	min   int
	max   int // 0 = unbounded
	strip map[int]bool
	store []*instance
}

func (k *kcEval) process(e *event.Event) []*instance {
	kept := k.store[:0]
	for _, in := range k.store {
		if k.sh.canExtend(in, e) {
			kept = append(kept, in)
		}
	}
	k.store = kept

	var completed []*instance
	base := len(k.store)
	for _, iter := range k.child.process(e) {
		// Scoped per-iteration conditions were checked inside the child;
		// clear the iteration's alias slots so later iterations can rebind.
		iter.stripSlots(k.strip)
		iter.iters = 1
		k.store = append(k.store, iter)
		if k.min <= 1 {
			completed = append(completed, iter)
		}
		for _, prev := range k.store[:base] {
			if k.max != 0 && prev.iters+1 > k.max {
				continue
			}
			merged := k.sh.tryMerge(prev, iter, true)
			if merged == nil {
				continue
			}
			merged.iters = prev.iters + 1
			if k.max == 0 || merged.iters < k.max {
				k.store = append(k.store, merged)
			}
			if merged.iters >= k.min {
				completed = append(completed, merged)
			}
		}
	}
	return completed
}
