package harness

import (
	"fmt"

	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/label"
	"dlacep/internal/pattern"
	"dlacep/internal/queries"
)

// Ablations exercises the design decisions catalogued in DESIGN.md that are
// not covered by a paper figure:
//
//  1. MarkSize/StepSize trade-off (the Figure 5/6 scenarios): recall and
//     gain across assembler geometries with an oracle filter, isolating the
//     assembler from network quality.
//  2. Filter quality ladder: oracle vs trained event-network vs static
//     type filter, quantifying how much of the gain is network-specific.
//  3. Negation-aware labeling (Section 4.4): false positives with and
//     without marking negated events.
func Ablations(sc Scale) ([]*Report, error) {
	st := dataset.Stock(*sc.StockStream(99))

	// 1. assembler geometry
	geom := &Report{ID: "abl-markstep", Title: "ablation: MarkSize/StepSize geometry (oracle filter)"}
	pat := queries.QA1(sc.W, 4, sc.KLarge, []int{1, 2, 3}, 0.8, 1.2)
	pats := []*pattern.Pattern{pat}
	lab, err := label.New(st.Schema, pats...)
	if err != nil {
		return nil, err
	}
	windows := dataset.Windows(st, 2*sc.W)
	_, testWs := dataset.Split(windows, 0.7, sc.Seed)
	sortWindowsByID(testWs)
	evalStream := realEvents(st.Schema, testWs)
	ecep, err := core.RunECEP(st.Schema, pats, evalStream)
	if err != nil {
		return nil, err
	}
	for _, g := range []struct {
		name       string
		mark, step int
	}{
		{"mark=W,step=W (Figure 5: lossy)", sc.W, sc.W},
		{"mark=2W,step=W (paper default)", 2 * sc.W, sc.W},
		{"mark=3W,step=2W", 3 * sc.W, 2 * sc.W},
		{"mark=W,step=1 (exhaustive)", sc.W, 1},
	} {
		cfg := core.Config{MarkSize: g.mark, StepSize: g.step, Hidden: sc.Hidden, Layers: sc.Layers, Seed: sc.Seed}
		pl, err := core.NewPipeline(st.Schema, pats, cfg, core.OracleFilter{L: lab})
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", g.name, err)
		}
		if _, err := pl.Run(evalStream); err != nil { // warm label memo
			return nil, err
		}
		acep, err := pl.Run(evalStream)
		if err != nil {
			return nil, err
		}
		cmp := core.Compare(acep, ecep)
		geom.Add(Row{Series: "oracle", X: g.name, Gain: cmp.Gain,
			Quality: cmp.Recall, QName: "recall",
			Extra: map[string]float64{"filter_ratio": acep.FilterRatio()}})
	}

	// 2. filter ladder
	ladder := &Report{ID: "abl-filters", Title: "ablation: filter quality ladder"}
	res, err := RunCase(sc, pats, st, []FilterKind{Oracle, EventNet, WindowNet, TypeOnly}, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		ladder.Add(r.row(pat.Name))
	}

	// 3. negation-aware labeling
	negRep := &Report{ID: "abl-neglabel", Title: "ablation: negation-aware labeling (Section 4.4)"}
	npat := queries.QA7(sc.W, 2, 0.75, 1.3, sc.Base, sc.BandStep)
	npats := []*pattern.Pattern{npat}
	for _, aware := range []bool{true, false} {
		nlab, err := label.New(st.Schema, npats...)
		if err != nil {
			return nil, err
		}
		nlab.NegAware = aware
		nwindows := dataset.Windows(st, 2*sc.W)
		_, ntest := dataset.Split(nwindows, 0.7, sc.Seed)
		sortWindowsByID(ntest)
		neval := realEvents(st.Schema, ntest)
		necep, err := core.RunECEP(st.Schema, npats, neval)
		if err != nil {
			return nil, err
		}
		cfg := core.Config{MarkSize: 2 * sc.W, StepSize: sc.W, Hidden: sc.Hidden, Layers: sc.Layers, Seed: sc.Seed}
		pl, err := core.NewPipeline(st.Schema, npats, cfg, core.OracleFilter{L: nlab})
		if err != nil {
			return nil, err
		}
		if _, err := pl.Run(neval); err != nil { // warm label memo
			return nil, err
		}
		acep, err := pl.Run(neval)
		if err != nil {
			return nil, err
		}
		cmp := core.Compare(acep, necep)
		name := "neg-aware"
		if !aware {
			name = "naive"
		}
		negRep.Add(Row{Series: name, X: npat.Name, Gain: cmp.Gain,
			Quality: cmp.F1, QName: "F1",
			Extra: map[string]float64{
				"false_pos": float64(cmp.Counts.FP),
				"false_neg": float64(cmp.Counts.FN),
			}})
	}
	negRep.Note("naive labeling omits events under NEG; the inner engine then lacks the blocking events and emits false positives")

	extra, err := extraAblations(sc)
	if err != nil {
		return nil, err
	}
	return append([]*Report{geom, ladder, negRep}, extra...), nil
}
