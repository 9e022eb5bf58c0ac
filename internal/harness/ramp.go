package harness

import (
	"fmt"
	"runtime"
	"time"

	"dlacep/internal/adapt"
	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/obs"
	"dlacep/internal/pattern"
	"dlacep/internal/queries"
	"dlacep/internal/shed"
)

// RampOptions shapes the adaptive load-ramp scenario.
type RampOptions struct {
	// SLO is the per-window service-time p99 target handed to the
	// controller. 0 auto-calibrates to 1.5× the slower of the pinned exact
	// and pinned filtered window p99s, so every rung can satisfy it on
	// service time and the overload contrast is purely queue-driven.
	SLO time.Duration
	// Steps is the number of offered-load plateaus. Default 8.
	Steps int
	// StartFactor/EndFactor bound the offered rate as multiples of the
	// calibrated exact-path capacity. Defaults 0.5 and 2.5: the ramp starts
	// at half what the uncontrolled baseline can sustain and ends at 2.5×.
	StartFactor, EndFactor float64
}

func (o *RampOptions) defaults() {
	if o.Steps <= 0 {
		o.Steps = 8
	}
	if o.StartFactor <= 0 {
		o.StartFactor = 0.5
	}
	if o.EndFactor <= o.StartFactor {
		o.EndFactor = o.StartFactor + 2
	}
}

// RampPoint is one offered-load plateau's outcome.
type RampPoint struct {
	Step          int       `json:"step"`
	OfferedEPS    float64   `json:"offered_eps"`
	Events        int       `json:"events"`
	RecentP99NS   int64     `json:"recent_p99_ns"`
	LagNS         int64     `json:"lag_ns"`
	BacklogEvents float64   `json:"backlog_events"`
	Levels        []int     `json:"levels"`
	ShedRatios    []float64 `json:"shed_ratios"`
}

// RampRun is one full traversal of the ramp by one configuration.
type RampRun struct {
	Adaptive           bool        `json:"adaptive"`
	Points             []RampPoint `json:"points"`
	MaxLevel           int         `json:"max_level"`
	FinalRecentP99NS   int64       `json:"final_recent_p99_ns"`
	FinalLagNS         int64       `json:"final_lag_ns"`
	FinalBacklogEvents float64     `json:"final_backlog_events"`
	Recall             float64     `json:"recall"`
	Matches            int         `json:"matches"`
}

// RampReport is the load-ramp scenario's result: the same offered-load
// ramp traversed twice, once under the adaptive controller and once pinned
// exact with no controller.
type RampReport struct {
	Scale              string  `json:"scale"`
	Patterns           int     `json:"patterns"`
	SLONS              int64   `json:"slo_ns"`
	CapacityEPS        float64 `json:"capacity_eps"`
	ExactWindowP99NS   int64   `json:"exact_window_p99_ns"`
	FilteredWindowP99N int64   `json:"filtered_window_p99_ns"`
	Controlled         RampRun `json:"controlled"`
	Baseline           RampRun `json:"baseline"`
}

// backlogGauge is the virtual-queue depth the ramp publishes and the
// controller watches; it plays the role an ingress queue's depth plays in
// a deployed instance.
const backlogGauge = "ramp.backlog.events"

// LoadRamp trains the scale's event filter, calibrates the pinned exact
// and filtered paths, then drives the same rising offered-load ramp
// through (a) an AdaptiveProcessor governed by an adapt.Controller and
// (b) an uncontrolled processor pinned at exact CEP, the two in lockstep.
//
// Arrivals are simulated in virtual time — event i of a plateau offering R
// events/sec arrives 1/R after event i-1 — while service times are the
// measured cost of each Push in CPU time of the pushing thread, so time the
// host gives to other processes is not charged to the server. The virtual
// queue's lag (server completion time minus arrival time) and its backlog
// in events are the overload signals; the controller ticks once per marking
// step at the virtual completion clock, so the scenario is deterministic in
// shape and independent of host speed, yet every latency it reacts to is
// real.
func LoadRamp(sc Scale, opts RampOptions) (*RampReport, error) {
	opts.defaults()
	st := dataset.Stock(*sc.StockStream(90))
	pats := []*pattern.Pattern{
		queries.QA10(sc.W, 3, 0.7, 1.35, sc.BandSize),
		queries.QA10(sc.W, 4, 0.7, 1.35, sc.BandSize),
	}
	w, err := patternWindow(pats)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{MarkSize: 2 * w, StepSize: w, Hidden: sc.Hidden, Layers: sc.Layers, Seed: sc.Seed}
	windows := dataset.Windows(st, 2*w)
	trainWs, testWs := dataset.Split(windows, 0.7, sc.Seed)
	sortWindowsByID(testWs)
	lab, err := label.New(st.Schema, pats...)
	if err != nil {
		return nil, err
	}
	net, err := core.NewEventNetwork(st.Schema, pats, cfg)
	if err != nil {
		return nil, err
	}
	topt := core.DefaultTrainOptions()
	topt.MaxEpochs = sc.MaxEpochs
	topt.Seed = sc.Seed
	if _, err := net.Fit(trainWs, lab, topt); err != nil {
		return nil, err
	}
	if sc.TargetRecall > 0 {
		if _, err := net.Calibrate(calibWindows(trainWs), lab, sc.TargetRecall); err != nil {
			return nil, err
		}
	}
	evalStream := realEvents(st.Schema, testWs)
	if evalStream.Len() < 4*cfg.MarkSize {
		return nil, fmt.Errorf("harness: ramp needs at least %d eval events, have %d", 4*cfg.MarkSize, evalStream.Len())
	}

	// Calibrate the pinned rungs on a prefix: capacity (events/sec) of the
	// exact path anchors the offered-load ramp, and the window p99s anchor
	// the auto-SLO.
	prefixLen := evalStream.Len() / 3
	if prefixLen < 2*cfg.MarkSize {
		prefixLen = 2 * cfg.MarkSize
	}
	prefix := evalStream.Slice(0, prefixLen)
	exactEPS, exactP99, err := calibratePinned(st.Schema, pats, cfg, net, core.LevelExact, prefix, sc.Seed)
	if err != nil {
		return nil, err
	}
	_, filteredP99, err := calibratePinned(st.Schema, pats, cfg, net, core.LevelFiltered, prefix, sc.Seed)
	if err != nil {
		return nil, err
	}
	slo := opts.SLO
	if slo <= 0 {
		worst := exactP99
		if filteredP99 > worst {
			worst = filteredP99
		}
		slo = worst * 3 / 2
	}

	ecep, err := core.RunECEP(st.Schema, pats, evalStream)
	if err != nil {
		return nil, err
	}

	reg := sc.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rep := &RampReport{
		Scale:              sc.Name,
		Patterns:           len(pats),
		SLONS:              slo.Nanoseconds(),
		CapacityEPS:        exactEPS,
		ExactWindowP99NS:   exactP99.Nanoseconds(),
		FilteredWindowP99N: filteredP99.Nanoseconds(),
	}

	// Controlled lane: the controller starts the ladder at exact and owns
	// every move from there. QA10 matches are four-long sequences, so the
	// recall-deficit model prices shedding with MatchEvents=4.
	pl, err := core.NewPipeline(st.Schema, pats, cfg, net)
	if err != nil {
		return nil, err
	}
	pl.Obs = reg
	pl.TrackKeys = true
	board := core.NewLevelBoard(len(pats))
	ctl, err := adapt.New(adapt.Config{
		SLO:             slo,
		Dwell:           1, // virtual ns: the per-tick cadence is the dwell
		RecentIntervals: 2,
		BacklogGauge:    backlogGauge,
		BacklogHigh:     float64(2 * cfg.MarkSize),
		MatchEvents:     []int{4, 4},
	}, board, reg)
	if err != nil {
		return nil, err
	}
	gates := make([]core.Gate, len(pats))
	for i := range gates {
		gates[i] = shed.NewRandom(0, sc.Seed+int64(i))
	}
	controlled, err := newRampLane(pl, board, gates, ctl, reg)
	if err != nil {
		return nil, err
	}

	// Baseline lane: the same ramp with no controller and the board pinned
	// at exact — the uncontrolled configuration whose virtual queue is left
	// to diverge. It runs on a private registry so its gauges cannot leak
	// into the controlled lane's exported snapshot.
	basePl, err := core.NewPipeline(st.Schema, pats, cfg, net)
	if err != nil {
		return nil, err
	}
	basePl.Obs = obs.NewRegistry()
	baseBoard := core.NewLevelBoard(len(pats))
	baseBoard.Pin(core.LevelExact)
	baseline, err := newRampLane(basePl, baseBoard, nil, nil, basePl.Obs)
	if err != nil {
		return nil, err
	}

	if err := rampTraverse(controlled, baseline, evalStream, exactEPS, opts, cfg.StepSize); err != nil {
		return nil, err
	}
	res, err := controlled.finish()
	if err != nil {
		return nil, err
	}
	if _, err := baseline.finish(); err != nil {
		return nil, err
	}
	cmp := core.Compare(res, ecep)
	controlled.run.Recall = cmp.Recall
	controlled.run.Matches = len(res.Keys)
	rep.Controlled = *controlled.run
	publishQuality(reg, &CaseResult{ACEP: res, ECEP: ecep, Cmp: cmp})
	baseline.run.Recall = 1 // the exact path is lossless by the differential guarantee
	rep.Baseline = *baseline.run
	return rep, nil
}

// calibratePinned measures one pinned rung on the prefix: an unmeasured
// warm-up pass, then a measured pass yielding events per CPU-second of the
// calibrating thread and window p99.
func calibratePinned(schema *event.Schema, pats []*pattern.Pattern, cfg core.Config, filter core.EventFilter, level core.Level, prefix *event.Stream, seed int64) (float64, time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var eps float64
	var p99 time.Duration
	for pass := 0; pass < 2; pass++ {
		pl, err := core.NewPipeline(schema, pats, cfg, filter)
		if err != nil {
			return 0, 0, err
		}
		reg := obs.NewRegistry()
		if pass == 1 {
			pl.Obs = reg
		}
		board := core.NewLevelBoard(len(pats))
		board.Pin(level)
		proc, err := pl.NewAdaptiveProcessor(board, nil)
		if err != nil {
			return 0, 0, err
		}
		runtime.GC()
		start := mustThreadCPUNanos()
		for i := range prefix.Events {
			if _, err := proc.Push(prefix.Events[i]); err != nil {
				return 0, 0, err
			}
		}
		if _, err := proc.Flush(); err != nil {
			return 0, 0, err
		}
		elapsed := mustThreadCPUNanos() - start
		if pass == 1 {
			eps = float64(prefix.Len()) / (float64(elapsed) / 1e9)
			p99 = reg.Histogram(core.MetricAdaptWindow).Quantile(0.99)
		}
	}
	return eps, p99, nil
}

// rampLane is one configuration's traversal of the ramp: its processor,
// its virtual clocks and the trajectory recorded so far. ctl is nil for the
// uncontrolled baseline; the board is still consulted for per-point
// level/ratio snapshots.
type rampLane struct {
	proc     *core.AdaptiveProcessor
	board    *core.LevelBoard
	ctl      *adapt.Controller
	winH     *obs.Histogram
	backlogG *obs.Gauge
	run      *RampRun

	arrivalNS, doneNS float64 // the virtual clocks
	lastP99           int64
	maxLevel          int
}

func newRampLane(pl *core.Pipeline, board *core.LevelBoard, gates []core.Gate, ctl *adapt.Controller, reg *obs.Registry) (*rampLane, error) {
	proc, err := pl.NewAdaptiveProcessor(board, gates)
	if err != nil {
		return nil, err
	}
	return &rampLane{
		proc:     proc,
		board:    board,
		ctl:      ctl,
		winH:     reg.Histogram(core.MetricAdaptWindow),
		backlogG: reg.Gauge(backlogGauge),
		run:      &RampRun{Adaptive: ctl != nil},
		maxLevel: int(board.MaxLevel()),
	}, nil
}

// push offers event e at the plateau's rate and charges its measured
// service time to the lane's virtual server; tick says whether a marking
// step ends with it.
func (l *rampLane) push(e event.Event, gapNS, offered float64, tick bool) error {
	l.arrivalNS += gapNS
	if l.doneNS < l.arrivalNS {
		l.doneNS = l.arrivalNS // the server was idle, waiting
	}
	start := mustThreadCPUNanos()
	if _, err := l.proc.Push(e); err != nil {
		return err
	}
	l.doneNS += float64(mustThreadCPUNanos() - start)
	if !tick {
		return nil
	}
	l.backlogG.Set((l.doneNS - l.arrivalNS) * offered / 1e9)
	if l.ctl != nil {
		l.ctl.Tick(time.Unix(0, int64(l.doneNS)))
		l.lastP99 = l.ctl.Status().RecentP99NS
	} else {
		l.lastP99 = l.winH.RecentQuantile(0.99, 2).Nanoseconds()
		l.winH.Roll()
	}
	l.maxLevel = max(l.maxLevel, int(l.board.MaxLevel()))
	return nil
}

// endStep records the plateau just finished.
func (l *rampLane) endStep(step, n int, offered float64) {
	lag := int64(l.doneNS - l.arrivalNS)
	levels := make([]int, l.board.Patterns())
	for i, lv := range l.board.Levels() {
		levels[i] = int(lv)
	}
	l.run.Points = append(l.run.Points, RampPoint{
		Step:          step,
		OfferedEPS:    offered,
		Events:        n,
		RecentP99NS:   l.lastP99,
		LagNS:         lag,
		BacklogEvents: float64(lag) * offered / 1e9,
		Levels:        levels,
		ShedRatios:    l.board.ShedRatios(),
	})
}

// finish flushes the lane's processor and closes its trajectory.
func (l *rampLane) finish() (*core.Result, error) {
	if _, err := l.proc.Flush(); err != nil {
		return nil, err
	}
	last := l.run.Points[len(l.run.Points)-1]
	l.run.MaxLevel = l.maxLevel
	l.run.FinalRecentP99NS = last.RecentP99NS
	l.run.FinalLagNS = last.LagNS
	l.run.FinalBacklogEvents = last.BacklogEvents
	return l.proc.Result(), nil
}

// rampTraverse drives both lanes through the offered-load ramp in virtual
// time, in lockstep: each event is pushed to one lane and then to the
// other, the order alternating from event to event. Each lane keeps its
// own clocks, so the lanes do not interact, but a stretch of slow host
// (another process, a GC cycle, a frequency change) lands on both rather
// than on whichever traversal happened to be running, and the comparison
// between them is paired event by event.
func rampTraverse(a, b *rampLane, st *event.Stream, capacityEPS float64, opts RampOptions, tickEvery int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	perStep := st.Len() / opts.Steps
	runtime.GC()
	pos := 0
	for s := 0; s < opts.Steps; s++ {
		frac := 0.0
		if opts.Steps > 1 {
			frac = float64(s) / float64(opts.Steps-1)
		}
		offered := capacityEPS * (opts.StartFactor + (opts.EndFactor-opts.StartFactor)*frac)
		gapNS := 1e9 / offered
		n := perStep
		if s == opts.Steps-1 {
			n = st.Len() - pos // the last plateau absorbs the remainder
		}
		for i := 0; i < n; i++ {
			tick := (pos+1)%tickEvery == 0
			first, second := a, b
			if pos%2 == 1 {
				first, second = b, a
			}
			if err := first.push(st.Events[pos], gapNS, offered, tick); err != nil {
				return err
			}
			if err := second.push(st.Events[pos], gapNS, offered, tick); err != nil {
				return err
			}
			pos++
		}
		a.endStep(s, n, offered)
		b.endStep(s, n, offered)
	}
	return nil
}

// Rows renders both trajectories for the text report.
func (r *RampReport) Rows() *Report {
	rep := &Report{ID: "ramp", Title: "adaptive degradation under a rising offered-load ramp"}
	rep.Note("scale=%s patterns=%d slo=%s capacity=%.0f events/sec (pinned exact)",
		r.Scale, r.Patterns, time.Duration(r.SLONS), r.CapacityEPS)
	rep.Note("pinned window p99: exact=%s filtered=%s",
		time.Duration(r.ExactWindowP99NS), time.Duration(r.FilteredWindowP99N))
	for _, runs := range []struct {
		name string
		run  RampRun
	}{{"adaptive", r.Controlled}, {"pinned-exact", r.Baseline}} {
		for _, p := range runs.run.Points {
			rep.Add(Row{
				Series:  runs.name,
				X:       fmt.Sprintf("%.2fx", p.OfferedEPS/r.CapacityEPS),
				Gain:    p.BacklogEvents,
				Quality: runs.run.Recall,
				QName:   "recall",
				Extra: map[string]float64{
					"lag_ms":    float64(p.LagNS) / 1e6,
					"p99_us":    float64(p.RecentP99NS) / 1e3,
					"max_level": float64(maxLevelOf(p.Levels)),
				},
			})
		}
	}
	rep.Note("controlled: max_level=%d final_lag=%s recall=%.4f; baseline: final_lag=%s",
		r.Controlled.MaxLevel, time.Duration(r.Controlled.FinalLagNS),
		r.Controlled.Recall, time.Duration(r.Baseline.FinalLagNS))
	return rep
}

func maxLevelOf(levels []int) int {
	m := 0
	for _, l := range levels {
		if l > m {
			m = l
		}
	}
	return m
}
