package cep

import (
	"errors"
	"fmt"
	"math/bits"

	"dlacep/internal/event"
	"dlacep/internal/pattern"
	pcompile "dlacep/internal/pattern/compile"
)

// compiled holds the per-pattern static tables built once by New.
type compiled struct {
	pat    *pattern.Pattern
	schema *event.Schema

	slotOf map[string]int  // alias -> global slot
	prims  []*pattern.Node // slot -> primitive node (positive and negative)

	// condsBySlot indexes positive (non-negation) conditions by every slot
	// they reference; a condition is evaluated at the first merge where all
	// of its slots become bound.
	condsBySlot [][]posCond

	// kcSlots maps each Kleene node to the slot mask of its child subtree,
	// cleared after every completed iteration.
	kcSlots map[*pattern.Node]uint64

	// negTypes is the set of event types that must be buffered for negation
	// validation.
	negTypes map[string]bool

	// negConds maps each NEG node to the conditions that constrain its
	// component (conditions referencing at least one of its aliases).
	negConds map[*pattern.Node][]posCond

	// condObs lists every scoped condition with its shared evaluation
	// counter, in compile.PatternConds order, for live selectivity export.
	condObs []pcompile.CondObs
}

// posCond is a compiled positive condition: the original condition (kept for
// alias introspection and plan display) plus its compiled predicate. posCond
// is copied into several index slots; pred and the Obs behind it are shared
// across the copies, so a condition is counted once per evaluation no matter
// which slot triggered it.
type posCond struct {
	cond pattern.Condition
	pred pcompile.Pred
	mask uint64 // slots of the condition's aliases
}

// negSpec describes one negation component of a SEQ node: the negated
// subtree, its gap (the positive children bounding it), and the conditions
// that constrain it.
type negSpec struct {
	component *pattern.Node
	// prevIdx/nextIdx are indices into the SEQ's positive children
	// bounding the negation; -1 / len(positives) when the negation leads or
	// trails the sequence.
	prevIdx, nextIdx int
	conds            []posCond // conditions referencing this component's aliases
	prims            []*pattern.Node
}

// ErrTooManyAliases rejects a pattern binding more than 64 aliases, positive
// and negated: an instance records its bound slots in one uint64.
var ErrTooManyAliases = errors.New("cep: pattern binds more than 64 aliases")

// compile builds the static tables. Every WHERE condition is typechecked
// against the schema and lowered to a closure chain here, at submission —
// a bad attribute name is an error from New, not a panic at the first
// matching event. interpret switches evaluation to the tree-walking
// interpreter (the reference arm of the differential suite); typechecking
// happens either way so both arms reject the same patterns.
func compile(p *pattern.Pattern, schema *event.Schema, interpret bool) (*compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &compiled{
		pat:      p,
		schema:   schema,
		slotOf:   map[string]int{},
		kcSlots:  map[*pattern.Node]uint64{},
		negTypes: map[string]bool{},
	}
	for _, pr := range p.Prims() {
		c.slotOf[pr.Alias] = len(c.prims)
		c.prims = append(c.prims, pr)
	}
	if len(c.prims) > 64 {
		return nil, fmt.Errorf("%w: %d", ErrTooManyAliases, len(c.prims))
	}

	// Alias classification: under Kleene, under negation, or plain.
	underKC := map[string]bool{}
	underNeg := map[string]*pattern.Node{} // alias -> enclosing NEG node
	var classify func(n *pattern.Node, kc bool, neg *pattern.Node)
	classify = func(n *pattern.Node, kc bool, neg *pattern.Node) {
		switch n.Kind {
		case pattern.KindKleene:
			kc = true
		case pattern.KindNeg:
			neg = n
		case pattern.KindPrim:
			if kc {
				underKC[n.Alias] = true
			}
			if neg != nil {
				underNeg[n.Alias] = neg
			}
		}
		for _, ch := range n.Children {
			classify(ch, kc, neg)
		}
	}
	classify(p.Root, false, nil)

	for _, n := range p.NegPrims() {
		for _, t := range n.Types {
			c.negTypes[t] = true
		}
	}
	p.Root.Walk(func(n *pattern.Node) {
		if n.Kind != pattern.KindKleene {
			return
		}
		var slots uint64
		for _, pr := range n.Children[0].Prims() {
			slots |= 1 << c.slotOf[pr.Alias]
		}
		c.kcSlots[n] = slots
	})

	// Gather every condition with the node that scopes it, then classify:
	// negation-referencing conditions attach to their negation component;
	// all others are indexed by slot for incremental evaluation. Conditions
	// scoped to a subtree are naturally evaluated within it because their
	// aliases only become bound there.
	type scoped struct {
		cond  pattern.Condition
		scope *pattern.Node
	}
	var all []scoped
	for _, cd := range p.Where {
		all = append(all, scoped{cd, p.Root})
	}
	p.Root.Walk(func(n *pattern.Node) {
		for _, cd := range n.Where {
			all = append(all, scoped{cd, n})
		}
	})

	env := pcompile.EnvOf(p, schema)
	lower := func(cond pattern.Condition) (pcompile.Pred, error) {
		res, err := pcompile.Analyze(cond, env)
		if err != nil {
			return nil, fmt.Errorf("cep: %w", err)
		}
		pred := res.Pred
		if interpret {
			pred = pcompile.Interpreted(cond)
		}
		o := &pcompile.Obs{}
		c.condObs = append(c.condObs, pcompile.CondObs{Cond: cond, Obs: o})
		return pcompile.Instrumented(pred, o), nil
	}

	c.condsBySlot = make([][]posCond, len(c.prims))
	negCondsByNode := map[*pattern.Node][]posCond{}
	for _, sc := range all {
		aliases := sc.cond.Aliases()
		var negNode *pattern.Node
		kcRef, negRef, plainRef := false, false, false
		for _, a := range aliases {
			if _, ok := c.slotOf[a]; !ok {
				return nil, fmt.Errorf("cep: condition %v references unknown alias %q", sc.cond, a)
			}
			if n := underNeg[a]; n != nil {
				negRef = true
				if negNode != nil && negNode != n {
					return nil, fmt.Errorf("cep: condition %v spans two negation components", sc.cond)
				}
				negNode = n
			} else if underKC[a] {
				kcRef = true
			} else {
				plainRef = true
			}
		}
		switch {
		case negRef && kcRef:
			return nil, fmt.Errorf("cep: condition %v mixes negated and Kleene aliases", sc.cond)
		case kcRef && plainRef:
			return nil, fmt.Errorf("cep: condition %v mixes Kleene-internal and outer aliases; scope it to the Kleene child", sc.cond)
		}
		pred, err := lower(sc.cond)
		if err != nil {
			return nil, err
		}
		pc := posCond{cond: sc.cond, pred: pred, mask: c.maskOf(aliases)}
		if negRef {
			negCondsByNode[negNode] = append(negCondsByNode[negNode], pc)
			continue
		}
		for m := pc.mask; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			c.condsBySlot[s] = append(c.condsBySlot[s], pc)
		}
	}

	c.negConds = negCondsByNode
	return c, nil
}

func (c *compiled) maskOf(aliases []string) uint64 {
	var m uint64
	for _, a := range aliases {
		m |= 1 << c.slotOf[a]
	}
	return m
}
