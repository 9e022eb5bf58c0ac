package harness

import (
	"fmt"
	"runtime"
	"sort"

	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/pattern"
	"dlacep/internal/shard"
)

// FilterKind selects the pipeline's filter.
type FilterKind string

// The filter variants exercised by the experiments.
const (
	EventNet  FilterKind = "event-net"
	WindowNet FilterKind = "window-net"
	Oracle    FilterKind = "oracle"
	TypeOnly  FilterKind = "type-only"
)

// CaseOptions tweaks a single experiment case.
type CaseOptions struct {
	// TrainMod edits the default training options (epoch/data sweeps).
	TrainMod func(*core.TrainOptions)
	// MaxWindow, when positive, switches to simulated time-based windows of
	// random sizes up to MaxWindow, blank-padded (Figure 14).
	MaxWindow int
	// NetEval bounds how many held-out windows score the network's F1
	// (0 = skip network-level evaluation).
	NetEval int
	// Arch overrides the filter body architecture ("bilstm" or "tcn").
	Arch string
}

// CaseResult is the outcome of one (pattern set, filter kind) run.
type CaseResult struct {
	Kind        FilterKind
	Gain        float64
	Quality     float64
	QName       string
	FNPct       float64
	FilterRatio float64
	NetF1       float64
	TrainEpochs int
	ACEP        *core.Result
	ECEP        *core.Result
	Cmp         core.Comparison
}

// RunCase trains the requested filters on the stream's training split and
// compares each resulting pipeline against ECEP on the held-out split.
func RunCase(sc Scale, pats []*pattern.Pattern, st *event.Stream, kinds []FilterKind, opts *CaseOptions) ([]CaseResult, error) {
	if opts == nil {
		opts = &CaseOptions{NetEval: 40}
	}
	w, err := patternWindow(pats)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{MarkSize: 2 * w, StepSize: w, Hidden: sc.Hidden, Layers: sc.Layers, Arch: opts.Arch, Seed: sc.Seed}

	var windows [][]event.Event
	if opts.MaxWindow > 0 {
		windows = dataset.TimeWindows(st, opts.MaxWindow, sc.Seed)
		cfg.MarkSize = opts.MaxWindow
		if cfg.MarkSize < w {
			cfg.MarkSize = w
		}
		cfg.StepSize = cfg.MarkSize
	} else {
		windows = dataset.Windows(st, 2*w)
	}
	trainWs, testWs := dataset.Split(windows, 0.7, sc.Seed)
	sortWindowsByID(testWs)
	if sc.EvalWindows > 0 && len(testWs) > sc.EvalWindows {
		testWs = testWs[:sc.EvalWindows]
	}

	evalStream := realEvents(st.Schema, testWs)
	lab, err := label.New(st.Schema, pats...)
	if err != nil {
		return nil, err
	}
	// Warm the allocator on a prefix before timing ECEP; otherwise the
	// first (always ECEP) run pays one-time heap growth and the measured
	// gain is inflated.
	if n := evalStream.Len(); n > 0 {
		warmLen := n / 5
		if warmLen > 1500 {
			warmLen = 1500
		}
		if warmLen > 0 {
			if _, err := core.RunECEP(st.Schema, pats, evalStream.Slice(0, warmLen)); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()
	var ecep *core.Result
	if opts.MaxWindow > 0 {
		// Time-based simulation evaluates pre-cut windows; matches spanning
		// window boundaries are out of reach for *any* per-window system, so
		// the exact baseline must be per-window too (the paper's Figure 14
		// universe is the window partition).
		ecep, err = perWindowECEP(st.Schema, pats, testWs)
	} else {
		ecep, err = core.RunECEP(st.Schema, pats, evalStream)
	}
	if err != nil {
		return nil, err
	}
	hasNeg := false
	for _, p := range pats {
		if p.HasNegation() {
			hasNeg = true
		}
	}

	var out []CaseResult
	for _, kind := range kinds {
		res := CaseResult{Kind: kind, ECEP: ecep}
		var filter core.EventFilter
		topt := core.DefaultTrainOptions()
		topt.MaxEpochs = sc.MaxEpochs
		topt.Seed = sc.Seed
		topt.Obs = sc.Obs
		if opts.TrainMod != nil {
			opts.TrainMod(&topt)
		}
		switch kind {
		case EventNet:
			net, err := core.NewEventNetwork(st.Schema, pats, cfg)
			if err != nil {
				return nil, err
			}
			tr, err := net.Fit(trainWs, lab, topt)
			if err != nil {
				return nil, err
			}
			res.TrainEpochs = tr.Epochs
			if sc.TargetRecall > 0 {
				if _, err := net.Calibrate(calibWindows(trainWs), lab, sc.TargetRecall); err != nil {
					return nil, err
				}
			}
			if opts.NetEval > 0 {
				n := opts.NetEval
				if n > len(testWs) {
					n = len(testWs)
				}
				c, err := net.Evaluate(testWs[:n], lab)
				if err != nil {
					return nil, err
				}
				res.NetF1 = c.F1()
			}
			filter = net
		case WindowNet:
			net, err := core.NewWindowNetwork(st.Schema, pats, cfg)
			if err != nil {
				return nil, err
			}
			tr, err := net.Fit(trainWs, lab, topt)
			if err != nil {
				return nil, err
			}
			res.TrainEpochs = tr.Epochs
			if sc.TargetRecall > 0 {
				if _, err := net.Calibrate(calibWindows(trainWs), lab, sc.TargetRecall); err != nil {
					return nil, err
				}
			}
			if opts.NetEval > 0 {
				n := opts.NetEval
				if n > len(testWs) {
					n = len(testWs)
				}
				c, err := net.Evaluate(testWs[:n], lab)
				if err != nil {
					return nil, err
				}
				res.NetF1 = c.F1()
			}
			filter = core.WindowToEvent{F: net}
		case Oracle:
			filter = core.OracleFilter{L: lab}
		case TypeOnly:
			filter = core.NewTypeFilter(pats...)
		default:
			return nil, fmt.Errorf("harness: unknown filter kind %q", kind)
		}

		pl, err := core.NewPipeline(st.Schema, pats, cfg, filter)
		if err != nil {
			return nil, err
		}
		// Two passes: the first warms the allocator and — for the oracle
		// filter — the labeler's memo, so measured filter cost models an
		// already-trained (free) perfect filter instead of re-running exact
		// CEP per window; the second is the measurement.
		var acep *core.Result
		for pass := 0; pass < 2; pass++ {
			runtime.GC()
			// Only the measurement pass is observed: the warm-up pass would
			// otherwise double every counter and skew the latency histograms
			// with cold-allocator samples. Tracing and key tracking follow
			// the same rule.
			pl.Obs = nil
			pl.Trace = nil
			pl.TrackKeys = false
			if pass == 1 {
				pl.Obs = sc.Obs
				pl.Trace = sc.Trace
				pl.TrackKeys = sc.Obs != nil
			}
			if opts.MaxWindow > 0 {
				acep, err = pl.RunWindows(testWs)
			} else if sc.Shards > 1 {
				acep, err = runSharded(pl, evalStream, sc)
			} else {
				acep, err = pl.Run(evalStream)
			}
			if err != nil {
				return nil, err
			}
		}
		res.ACEP = acep
		res.Cmp = core.Compare(acep, ecep)
		res.Gain = res.Cmp.Gain
		res.FilterRatio = acep.FilterRatio()
		if hasNeg {
			res.Quality, res.QName = res.Cmp.F1, "F1"
		} else {
			res.Quality, res.QName = res.Cmp.Recall, "recall"
		}
		res.FNPct = res.Cmp.Counts.FNPct()
		publishQuality(sc.Obs, &res)
		out = append(out, res)
	}
	return out, nil
}

// runSharded streams the evaluation split through the key-sharded pipeline
// (Scale.Shards workers, Scale.ShardBatch-window marking batches).
func runSharded(pl *core.Pipeline, st *event.Stream, sc Scale) (*core.Result, error) {
	p, err := shard.New(pl, shard.Options{Shards: sc.Shards, Batch: sc.ShardBatch})
	if err != nil {
		return nil, err
	}
	for i := range st.Events {
		if err := p.Push(st.Events[i]); err != nil {
			return nil, err
		}
	}
	return p.Close()
}

// calibWindows bounds the calibration set so threshold tuning stays cheap.
func calibWindows(ws [][]event.Event) [][]event.Event {
	if len(ws) > 60 {
		return ws[:60]
	}
	return ws
}

func patternWindow(pats []*pattern.Pattern) (int, error) {
	if len(pats) == 0 {
		return 0, fmt.Errorf("harness: no patterns")
	}
	w := int(pats[0].Window.Size)
	for _, p := range pats[1:] {
		if int(p.Window.Size) != w {
			return 0, fmt.Errorf("harness: window sizes differ")
		}
	}
	return w, nil
}

func sortWindowsByID(ws [][]event.Event) {
	sort.Slice(ws, func(i, j int) bool { return ws[i][0].ID < ws[j][0].ID })
}

// perWindowECEP evaluates each window exactly and unions the matches — the
// baseline for time-based (pre-partitioned) evaluation.
func perWindowECEP(schema *event.Schema, pats []*pattern.Pattern, ws [][]event.Event) (*core.Result, error) {
	res := &core.Result{Keys: map[string]bool{}, KeysByPattern: make([]map[string]bool, len(pats))}
	for i := range res.KeysByPattern {
		res.KeysByPattern[i] = map[string]bool{}
	}
	for _, w := range ws {
		sub := realEvents(schema, [][]event.Event{w})
		res.EventsTotal += sub.Len()
		res.EventsRelayed += sub.Len()
		one, err := core.RunECEP(schema, pats, sub)
		if err != nil {
			return nil, err
		}
		res.CEPTime += one.CEPTime
		for k := range one.Keys {
			res.Keys[k] = true
		}
		for i, ks := range one.KeysByPattern {
			for k := range ks {
				res.KeysByPattern[i][k] = true
			}
		}
		res.Matches = append(res.Matches, one.Matches...)
	}
	return res, nil
}

// realEvents concatenates the non-blank events of ID-sorted windows into an
// evaluation stream.
func realEvents(schema *event.Schema, ws [][]event.Event) *event.Stream {
	var events []event.Event
	for _, w := range ws {
		for i := range w {
			if !w[i].IsBlank() {
				events = append(events, w[i])
			}
		}
	}
	return &event.Stream{Schema: schema, Events: events}
}

// row converts a CaseResult to a report row.
func (r CaseResult) row(x string) Row {
	return Row{
		Series:  string(r.Kind),
		X:       x,
		Gain:    r.Gain,
		Quality: r.Quality,
		QName:   r.QName,
		FNPct:   r.FNPct,
		Extra: map[string]float64{
			"filter_ratio": r.FilterRatio,
			"net_f1":       r.NetF1,
		},
	}
}

// instances pulls total NFA instance counts (partial-match complexity).
func instances(res *core.Result) float64 {
	var n int64
	for _, s := range res.CEPStats {
		n += s.Instances
	}
	return float64(n)
}
