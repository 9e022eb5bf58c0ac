package harness

import (
	"dlacep/internal/cep"
	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/metrics"
	"dlacep/internal/pattern"
	"dlacep/internal/queries"
	"dlacep/internal/shed"
)

// extraAblations covers the remaining DESIGN.md design decisions:
//
//  4. Load shedding vs DLACEP: at the same event-drop ratio, per-event
//     content-aware filtering (even the oracle's type+value signal) retains
//     more matches than the classical per-type utility shedding and far
//     more than random shedding.
//  5. The ID-distance constraint (Section 4.4): re-numbering filtered
//     events with fresh contiguous IDs (i.e., disabling the constraint)
//     produces false-positive matches; with original IDs there are none.
func extraAblations(sc Scale) ([]*Report, error) {
	st := dataset.Stock(*sc.StockStream(98))
	pat := queries.QA1(sc.W, 3, sc.KLarge, []int{1, 2}, 0.7, 1.4)
	pats := []*pattern.Pattern{pat}
	lab, err := label.New(st.Schema, pats...)
	if err != nil {
		return nil, err
	}
	windows := dataset.Windows(st, 2*sc.W)
	trainWs, testWs := dataset.Split(windows, 0.7, sc.Seed)
	sortWindowsByID(testWs)
	if sc.EvalWindows > 0 && len(testWs) > sc.EvalWindows {
		testWs = testWs[:sc.EvalWindows]
	}
	evalStream := realEvents(st.Schema, testWs)
	exact, err := core.RunECEP(st.Schema, pats, evalStream)
	if err != nil {
		return nil, err
	}

	// 4. shedding comparison at the oracle filter's drop ratio
	shedRep := &Report{ID: "abl-shedding", Title: "ablation: DLACEP filtering vs load shedding at equal drop ratio"}
	cfg := core.Config{MarkSize: 2 * sc.W, StepSize: sc.W, Hidden: sc.Hidden, Layers: sc.Layers, Seed: sc.Seed}
	pl, err := core.NewPipeline(st.Schema, pats, cfg, core.OracleFilter{L: lab})
	if err != nil {
		return nil, err
	}
	acep, err := pl.Run(evalStream)
	if err != nil {
		return nil, err
	}
	ratio := acep.FilterRatio()
	shedRep.Add(Row{Series: "dlacep(oracle)", X: pat.Name,
		Quality: metrics.MatchSets(acep.Keys, exact.Keys).Recall(), QName: "recall",
		Extra: map[string]float64{"drop_ratio": ratio}})

	util, rate, err := shed.TypeUtility(lab, trainWs)
	if err != nil {
		return nil, err
	}
	us, err := shed.NewUtility(ratio, util, rate, sc.Seed)
	if err != nil {
		return nil, err
	}
	utilRes, err := shed.Run(pat, evalStream, us)
	if err != nil {
		return nil, err
	}
	shedRep.Add(Row{Series: "utility-shedding", X: pat.Name,
		Quality: metrics.MatchSets(utilRes.Matches, exact.Keys).Recall(), QName: "recall",
		Extra: map[string]float64{"drop_ratio": utilRes.DropRatio()}})

	randRes, err := shed.Run(pat, evalStream, shed.NewRandom(ratio, sc.Seed))
	if err != nil {
		return nil, err
	}
	shedRep.Add(Row{Series: "random-shedding", X: pat.Name,
		Quality: metrics.MatchSets(randRes.Matches, exact.Keys).Recall(), QName: "recall",
		Extra: map[string]float64{"drop_ratio": randRes.DropRatio()}})

	// 5. ID constraint: renumber the oracle-filtered stream contiguously
	// and re-evaluate — matches that span more than W original events may
	// now be (wrongly) emitted.
	idRep := &Report{ID: "abl-idconstraint", Title: "ablation: per-event ID constraint (Section 4.4)"}
	filtered := filteredStream(st.Schema, testWs, lab)
	// with original IDs
	withIDs, _, err := cep.Run(pat, filtered)
	if err != nil {
		return nil, err
	}
	fp := 0
	for _, m := range withIDs {
		if !exact.Keys[m.Key()] {
			fp++
		}
	}
	idRep.Add(Row{Series: "original-ids", X: pat.Name,
		Quality: metrics.MatchSets(cep.Keys(withIDs), exact.Keys).Recall(), QName: "recall",
		Extra: map[string]float64{"false_pos": float64(fp)}})

	// renumbered: the constraint is void
	renumbered := &event.Stream{Schema: st.Schema}
	idOf := map[uint64]uint64{}
	for i := range filtered.Events {
		e := filtered.Events[i]
		idOf[uint64(i)] = e.ID
		e.ID = uint64(i)
		e.Ts = int64(i)
		renumbered.Events = append(renumbered.Events, e)
	}
	noConstraint, _, err := cep.Run(pat, renumbered)
	if err != nil {
		return nil, err
	}
	fp2, tp2 := 0, 0
	for _, m := range noConstraint {
		// translate back to original IDs to compare with the exact set
		orig := &cep.Match{}
		for _, e := range m.Events {
			oe := *e
			oe.ID = idOf[e.ID]
			orig.Events = append(orig.Events, &oe)
		}
		if exact.Keys[orig.Key()] {
			tp2++
		} else {
			fp2++
		}
	}
	recall2 := 0.0
	if len(exact.Keys) > 0 {
		recall2 = float64(tp2) / float64(len(exact.Keys))
	}
	idRep.Add(Row{Series: "renumbered-ids", X: pat.Name,
		Quality: recall2, QName: "recall",
		Extra: map[string]float64{"false_pos": float64(fp2)}})
	idRep.Note("renumbering voids the window constraint: distant events look adjacent and false positives appear")

	// 6. architecture: BiLSTM vs TCN at equal budget (the paper's Section
	// 4.1 preliminary comparison found BiLSTM superior for event filtering).
	archRep := &Report{ID: "abl-arch", Title: "ablation: filter architecture (BiLSTM vs TCN)"}
	for _, arch := range []string{"bilstm", "tcn"} {
		scA := sc
		res, err := RunCase(scA, pats, st, []FilterKind{EventNet}, &CaseOptions{
			NetEval: 30,
			TrainMod: func(o *core.TrainOptions) {
				// fixed budget for a fair comparison
				o.MaxEpochs = sc.MaxEpochs
				o.NoConvergence = true
			},
			Arch: arch,
		})
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			row := r.row(pat.Name)
			row.Series = arch
			archRep.Add(row)
		}
	}

	return []*Report{shedRep, idRep, archRep}, nil
}

// filteredStream applies oracle marks window by window and concatenates the
// deduplicated marked events.
func filteredStream(schema *event.Schema, ws [][]event.Event, lab *label.Labeler) *event.Stream {
	out := &event.Stream{Schema: schema}
	seen := map[uint64]bool{}
	f := core.OracleFilter{L: lab}
	for _, w := range ws {
		marks := f.Mark(w)
		for i, m := range marks {
			if m && !seen[w[i].ID] {
				seen[w[i].ID] = true
				out.Events = append(out.Events, w[i])
			}
		}
	}
	return out
}
