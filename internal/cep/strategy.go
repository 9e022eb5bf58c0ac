package cep

import (
	"fmt"

	"dlacep/internal/event"
	"dlacep/internal/pattern"
)

// Alternative selection strategies (skip-till-next-match and strict
// contiguity) are implemented by a dedicated evaluator restricted to
// sequence-of-primitives patterns — the class for which the classical
// policies are defined [3]. buildEval dispatches here when the pattern's
// Strategy is not skip-till-any-match.

// strategyEval evaluates SEQ(prim...) under STNM or strict contiguity.
type strategyEval struct {
	sh       *shared
	prims    []*pattern.Node
	slots    []int
	strategy pattern.SelectionStrategy
	// partials[i] holds instances that have matched prims[0..i].
	partials [][]*instance
}

func buildStrategyEval(sh *shared, root *pattern.Node) (*strategyEval, error) {
	if root.Kind != pattern.KindSeq {
		return nil, fmt.Errorf("cep: %v supports only SEQ of primitives, got %v",
			sh.c.pat.Strategy, root.Kind)
	}
	ev := &strategyEval{sh: sh, strategy: sh.c.pat.Strategy}
	for i, ch := range root.Children {
		if ch.Kind != pattern.KindPrim {
			return nil, fmt.Errorf("cep: %v supports only SEQ of primitives; child %d is %v",
				sh.c.pat.Strategy, i, ch.Kind)
		}
		ev.prims = append(ev.prims, ch)
		ev.slots = append(ev.slots, sh.c.slotOf[ch.Alias])
	}
	ev.partials = make([][]*instance, len(ev.prims))
	return ev, nil
}

func (s *strategyEval) process(e *event.Event) []*instance {
	if e.IsBlank() {
		return nil
	}
	n := len(s.prims)
	var completed []*instance

	// Advance existing partials (deepest first so one event cannot climb
	// through several states in a single step).
	for i := n - 2; i >= 0; i-- {
		kept := s.partials[i][:0]
		for _, p := range s.partials[i] {
			if !s.sh.canExtend(p, e) {
				continue // window expired
			}
			switch {
			case s.accepts(i+1, p, e):
				np := s.extend(p, i+1, e)
				if np == nil {
					// conditions failed: STNM keeps waiting; strict kills.
					if s.strategy == pattern.SkipTillNextMatch {
						kept = append(kept, p)
					}
					continue
				}
				if i+1 == n-1 {
					completed = append(completed, np)
				} else {
					s.partials[i+1] = append(s.partials[i+1], np)
				}
				// the partial is consumed by its first qualifying event
			case s.strategy == pattern.StrictContiguity:
				// an intervening event breaks contiguity
			default:
				kept = append(kept, p)
			}
		}
		s.partials[i] = kept
	}

	// Start new partials.
	if s.prims[0].AcceptsType(e.Type) {
		if p := s.start(e); p != nil {
			if n == 1 {
				completed = append(completed, p)
			} else {
				s.partials[0] = append(s.partials[0], p)
			}
		}
	}
	return completed
}

// accepts reports whether event e is a type-level candidate for prim i
// given partial p (strict contiguity additionally demands adjacency).
func (s *strategyEval) accepts(i int, p *instance, e *event.Event) bool {
	if !s.prims[i].AcceptsType(e.Type) {
		return false
	}
	if s.strategy == pattern.StrictContiguity && e.ID != p.maxID+1 {
		return false
	}
	return true
}

func (s *strategyEval) start(e *event.Event) *instance {
	if !s.sh.primOK(s.slots[0], e) {
		return nil
	}
	s.sh.stats.Instances++
	return newPrimInstance(e, s.slots[0], len(s.sh.c.prims))
}

func (s *strategyEval) extend(p *instance, i int, e *event.Event) *instance {
	if !s.sh.primOK(s.slots[i], e) {
		return nil
	}
	return s.sh.tryMerge(p, newPrimInstance(e, s.slots[i], len(s.sh.c.prims)), true)
}
