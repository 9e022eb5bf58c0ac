// Package harness reproduces every figure of the paper's experimental
// evaluation (Section 5). Each FigureN function generates the figure's
// workload, trains the required filter networks, runs DLACEP against the
// ECEP baseline (and, for Figure 12, the ZStream and lazy-evaluation
// optimizations), and returns printable reports.
//
// Experiments run at a configurable Scale. The paper's full-scale runs
// (W=150..350, tens of thousands of window samples, hidden size 75, months
// of GPU/CPU time) are reproduced in shape, not magnitude: Quick scales all
// sizes down so the full suite finishes in minutes on one core, and Paper
// restores the published parameters for users with the budget.
package harness

import (
	"dlacep/internal/dataset"
	"dlacep/internal/obs"
	"dlacep/internal/obs/trace"
)

// Scale bundles every size knob of the experiment suite.
type Scale struct {
	Name string

	// W is the base pattern window size (paper: 150).
	W int
	// StockEvents / SyntheticEvents size the generated streams.
	StockEvents     int
	SyntheticEvents int

	// Hidden/Layers shape the filter networks (paper: 75/3).
	Hidden int
	Layers int
	// MaxEpochs bounds filter training (convergence may stop earlier).
	MaxEpochs int
	// EvalWindows caps the number of held-out window samples used for
	// evaluation streams (0 = use the full test split). The paper uses
	// 20K-40K samples; Quick trims this so ECEP baselines stay tractable.
	EvalWindows int
	// TargetRecall drives post-training threshold calibration of the
	// filters on training data (0 disables; the paper trains to
	// convergence instead, reaching recall 0.95+ without calibration).
	TargetRecall float64

	// Shards, when > 1, runs the DLACEP measurement pass through the
	// key-sharded serving pipeline (internal/shard) instead of the batch
	// Run path: events hash-partitioned by type onto Shards marking
	// workers, CEP over the merged ID-ordered relay stream. ShardBatch is
	// K, the windows batched per filter call (0 = 1). The network filter
	// is composition-sensitive, so sharded match sets can differ slightly
	// from sequential ones (each shard marks its own sub-stream's
	// windows); the ECEP baseline is unaffected.
	Shards     int
	ShardBatch int

	// Stock generator shape.
	Tickers int
	ZipfS   float64
	Sigma   float64

	// Scaled versions of the template arguments of Table 1: the paper's
	// T_7 / T_100 prevalence sets and its band layouts.
	KSmall   int // paper 7
	KLarge   int // paper 100
	Base     int // paper 100 (QA5..QA9 base set)
	BandStep int // paper 10  (QA5..QA9 band width)
	BandSize int // paper 100 (QA10) / 40 (QA11, QA12)

	Seed int64

	// Obs, when non-nil, collects stage telemetry from every measurement
	// pass (warm-up passes stay unobserved so they cannot pollute the
	// histograms). Run attaches its snapshot to every produced Report.
	// A non-nil Obs also enables per-pattern match-key tracking, so the
	// differential comparison publishes quality.* gauges (recall, F1,
	// dropped matches — overall and per pattern) into the registry.
	Obs *obs.Registry

	// Trace, when non-nil, samples per-window critical-path traces from
	// every measurement pass (warm-up passes stay untraced, like Obs).
	Trace *trace.Tracer
}

// Quick is the default scale: the whole suite runs in minutes.
func Quick() Scale {
	return Scale{
		Name:            "quick",
		W:               18,
		StockEvents:     30000,
		SyntheticEvents: 24000,
		Hidden:          16,
		Layers:          1,
		MaxEpochs:       12,
		EvalWindows:     100,
		TargetRecall:    0.9,
		Tickers:         150,
		ZipfS:           1.1,
		Sigma:           0.3,
		KSmall:          3,
		KLarge:          14,
		Base:            10,
		BandStep:        3,
		BandSize:        5,
		Seed:            1,
	}
}

// Smoke is a CI-sized scale: one figure finishes in seconds. It exists to
// exercise the full train-evaluate-report path (plus telemetry export),
// not to produce meaningful accuracy or gain numbers.
func Smoke() Scale {
	sc := Quick()
	sc.Name = "smoke"
	sc.W = 10
	sc.StockEvents = 4000
	sc.SyntheticEvents = 3000
	sc.Hidden = 6
	sc.MaxEpochs = 1
	sc.EvalWindows = 20
	sc.Tickers = 60
	return sc
}

// Paper restores the published experiment parameters. Running it requires
// hardware comparable to the paper's (the authors report over three months
// of experiments).
func Paper() Scale {
	return Scale{
		Name:            "paper",
		W:               150,
		StockEvents:     2_000_000,
		SyntheticEvents: 2_000_000,
		Hidden:          75,
		Layers:          3,
		MaxEpochs:       100,
		EvalWindows:     0,
		TargetRecall:    0,
		Tickers:         2500,
		ZipfS:           1.2,
		Sigma:           0.3,
		KSmall:          7,
		KLarge:          100,
		Base:            100,
		BandStep:        10,
		BandSize:        40,
		Seed:            1,
	}
}

// StockStream generates this scale's stock dataset.
func (s Scale) StockStream(seedOffset int64) *dataset.StockConfig {
	cfg := dataset.StockConfig{
		Events:  s.StockEvents,
		Tickers: s.Tickers,
		ZipfS:   s.ZipfS,
		Sigma:   s.Sigma,
		Seed:    s.Seed + seedOffset,
	}
	return &cfg
}
