// Package dlacep is a deep-learning based framework for approximate complex
// event processing, reproducing Amir, Kolchinsky & Schuster, "DLACEP: A
// Deep-Learning Based Framework for Approximate Complex Event Processing"
// (SIGMOD 2022).
//
// DLACEP couples a neural filter with an exact CEP engine: a stacked-BiLSTM
// network marks the stream events likely to participate in pattern matches,
// and only marked events are relayed to the engine for match assembly. On
// streams with many partial matches this trades a small fraction of the
// matches for order-of-magnitude throughput gains.
//
// This root package is the public API; implementation lives in internal/*.
// A minimal session:
//
//	p := dlacep.MustParse("PATTERN SEQ(A a, B b, C c) WHERE c.vol > a.vol WITHIN 150")
//	lab, _ := dlacep.NewLabeler(stream.Schema, p)
//	net, _ := dlacep.NewEventNetwork(stream.Schema, []*dlacep.Pattern{p}, dlacep.DefaultConfig(150))
//	net.Fit(dlacep.SampleWindows(history, 300), lab, dlacep.DefaultTrainOptions())
//	pipe, _ := dlacep.NewPipeline(stream.Schema, []*dlacep.Pattern{p}, net.Cfg, net)
//	res, _ := pipe.Run(stream)
//
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduced evaluation.
package dlacep

import (
	"dlacep/internal/cep"
	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/mcep"
	"dlacep/internal/pattern"
)

// Event model.
type (
	// Event is a primitive stream event (type, attributes, timestamp, ID).
	Event = event.Event
	// Schema maps attribute names to positions in Event.Attrs.
	Schema = event.Schema
	// Stream is a schema plus an ordered event sequence.
	Stream = event.Stream
)

// NewSchema builds an attribute schema.
var NewSchema = event.NewSchema

// NewStream builds a stream over a schema, assigning sequential IDs.
var NewStream = event.NewStream

// Pattern model.
type (
	// Pattern is a monitored CEP pattern: operator tree, conditions, window.
	Pattern = pattern.Pattern
	// Condition is one WHERE-clause predicate.
	Condition = pattern.Condition
	// Window is the WITHIN clause.
	Window = pattern.Window
)

// Pattern constructors and the textual query language.
var (
	// Parse compiles "PATTERN SEQ(A a, B b) WHERE ... WITHIN W" queries.
	Parse = pattern.Parse
	// MustParse is Parse that panics on error.
	MustParse = pattern.MustParse
	// NewPattern assembles and validates a pattern programmatically.
	NewPattern = pattern.New
	// Seq, Conj, Disj, KC, Neg, Prim build operator trees.
	Seq  = pattern.Seq
	Conj = pattern.Conj
	Disj = pattern.Disj
	KC   = pattern.KC
	Neg  = pattern.Neg
	Prim = pattern.Prim
	// CountWindow and TimeWindow build WITHIN clauses.
	CountWindow = pattern.Count
	TimeWindow  = pattern.Time
	// Combine builds the disjunction of independently authored patterns.
	Combine = pattern.Combine
)

// Exact CEP engine (the ECEP baseline and the pipeline's extractor).
type (
	// Engine is the streaming NFA evaluator under skip-till-any-match.
	Engine = cep.Engine
	// Match is one full pattern match.
	Match = cep.Match
	// EngineStats counts events, partial-match instances, and matches.
	EngineStats = cep.Stats
)

// NewEngine compiles a pattern into a streaming engine.
var NewEngine = cep.New

// RunExact evaluates a whole stream exactly and returns deduplicated
// matches with statistics.
var RunExact = cep.Run

// DLACEP pipeline.
type (
	// Config holds MarkSize/StepSize and network shape (Section 4.2-4.3).
	Config = core.Config
	// EventNetwork is the per-event BiLSTM+Bi-CRF filter.
	EventNetwork = core.EventNetwork
	// WindowNetwork is the per-window BiLSTM classifier filter.
	WindowNetwork = core.WindowNetwork
	// EventFilter marks events to relay; WindowFilter classifies windows.
	EventFilter = core.EventFilter
	// WindowFilter classifies whole windows as applicable.
	WindowFilter = core.WindowFilter
	// WindowToEvent adapts a WindowFilter to the EventFilter interface.
	WindowToEvent = core.WindowToEvent
	// Pipeline is assembler -> filter -> dedup relay -> CEP extractor.
	Pipeline = core.Pipeline
	// Result is one pipeline run's matches and cost decomposition.
	Result = core.Result
	// Comparison scores an approximate run against the exact baseline.
	Comparison = core.Comparison
	// TrainOptions configures filter training.
	TrainOptions = core.TrainOptions
	// Labeler computes ground-truth labels by running exact CEP.
	Labeler = label.Labeler
)

var (
	// DefaultConfig returns the paper's pipeline configuration for a window.
	DefaultConfig = core.DefaultConfig
	// NewEventNetwork and NewWindowNetwork build untrained filters.
	NewEventNetwork  = core.NewEventNetwork
	NewWindowNetwork = core.NewWindowNetwork
	// NewPipeline wires a filter into the DLACEP pipeline.
	NewPipeline = core.NewPipeline
	// RunECEP measures the exact baseline on a stream.
	RunECEP = core.RunECEP
	// Compare computes recall/F1/gain of an approximate run vs exact.
	Compare = core.Compare
	// DefaultTrainOptions returns a CPU-scale training schedule.
	DefaultTrainOptions = core.DefaultTrainOptions
	// LoadModel reads a filter saved with (*EventNetwork).Save or
	// (*WindowNetwork).Save.
	LoadModel = core.LoadModel
	// NewLabeler builds a ground-truth labeler over monitored patterns.
	NewLabeler = label.New
)

// SampleWindows cuts a stream into consecutive window samples of the given
// size (use 2·W for training data, per Section 4.3).
var SampleWindows = dataset.Windows

// SplitWindows shuffles and splits samples into train/test portions.
var SplitWindows = dataset.Split

// Streaming deployment and operations.
type (
	// Processor is the incremental pipeline: push events, stream matches.
	Processor = core.Processor
	// DriftMonitor audits a deployed filter for accuracy degradation
	// (concept drift, Section 4.3) on cheap reservoir samples.
	DriftMonitor = core.DriftMonitor
	// DriftOptions configures audit cadence and thresholds.
	DriftOptions = core.DriftOptions
)

// NewDriftMonitor builds a drift monitor for a deployed filter.
var NewDriftMonitor = core.NewDriftMonitor

// Selection strategies: the engine also implements the cheaper classical
// policies for SEQ-of-primitives patterns (set Pattern.Strategy).
const (
	// SkipTillAnyMatch is the paper's policy: every combination matches.
	SkipTillAnyMatch = pattern.SkipTillAnyMatch
	// SkipTillNextMatch advances each partial with the first qualifying event.
	SkipTillNextMatch = pattern.SkipTillNextMatch
	// StrictContiguity requires adjacent events.
	StrictContiguity = pattern.StrictContiguity
)

// Multi-pattern shared evaluation (MCEP): several sequence patterns with
// common prefixes share one partial-match trie.
type (
	// MultiEngine evaluates several SEQ patterns over a shared prefix trie.
	MultiEngine = mcep.Engine
	// MultiMatch tags a match with the pattern that produced it.
	MultiMatch = mcep.Match
)

// NewMultiEngine builds a shared multi-pattern engine.
var NewMultiEngine = mcep.New

// RunMulti evaluates a stream against several patterns with shared state.
var RunMulti = mcep.Run
