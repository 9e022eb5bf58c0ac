package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"dlacep/internal/core"
	"dlacep/internal/dataset"
	"dlacep/internal/event"
	"dlacep/internal/label"
	"dlacep/internal/pattern"
	"dlacep/internal/queries"
)

// pacedRate is the open-loop send rate of filter-bound.paced in events/s:
// about 40 % of the sequential server's measured saturation on the 2-core
// reference container. It is a constant on purpose — re-deriving it per
// machine would make latency at "the" rate incomparable between commits.
const pacedRate = 20000

// spec is one workload: a stream shape, a pattern, a server configuration
// and a load shape. Sizes are per pass; a run repeats passes for the
// requested number of seconds.
type spec struct {
	name string
	why  string
	// stream and pattern
	tickers int
	pattern func() *pattern.Pattern
	// events is the number of events one pass sends; trainEvents sizes the
	// separate stream the filter is trained on.
	events      int
	trainEvents int
	// server flags
	shards     int
	shardBatch int
	// rate is the open-loop send rate in events/s; 0 sends as fast as TCP
	// accepts (closed by backpressure).
	rate int
}

// scale sizes every workload. full is what BENCHMARK.json measures; smoke
// runs the same code in seconds for the tier-1 test.
type scale struct {
	hidden, layers, epochs int
	// shrink divides event counts (1 at full scale).
	shrink int
	// timing enables the checks on the measurement itself (enough latency
	// samples for a 99th percentile, a punctual load generator); a smoke
	// run is too short to pass them and measures nothing anyway.
	timing bool
}

var (
	fullScale  = scale{hidden: 16, layers: 2, epochs: 8, shrink: 1, timing: true}
	smokeScale = scale{hidden: 4, layers: 1, epochs: 2, shrink: 25}
)

func seqPattern() *pattern.Pattern {
	p, err := pattern.Parse("PATTERN SEQ(S1 a, S3 b, S5 c) WHERE 0.3 * a.vol < b.vol WITHIN 12")
	if err != nil {
		panic("servebench: built-in pattern does not parse: " + err.Error())
	}
	return p
}

func qa1Pattern() *pattern.Pattern {
	return queries.QA1(18, 4, 14, []int{1, 2, 3}, 0.8, 1.2)
}

// workloads lists the four workloads in BENCHMARK.json order. Event counts
// are sized so a pass lasts about two seconds on the reference container.
func workloads() []*spec {
	return []*spec{
		{
			name:    "filter-bound.seq",
			why:     "cheap SEQ pattern, sequential server at saturation: filter inference is over 90% of server time and CEP under 1%, so an nn gain shows here and a CEP gain must not",
			tickers: 40, pattern: seqPattern, events: 100000, trainEvents: 8000,
		},
		{
			name:    "cep-bound.seq",
			why:     "QA1 with many partial matches (~0.56 matches/event), sequential at saturation: CEP is ~63% of server time, the filter ~30%; match identity, bindings and peak_rss_mb move here",
			tickers: 150, pattern: qa1Pattern, events: 24000, trainEvents: 6000,
		},
		{
			name:    "filter-bound.shards2",
			why:     "filter-bound stream and model with -shards 2 -shard-batch 4: the only workload that runs internal/shard; recall and cpu_s_per_mevent sit beside throughput_eps so a bought gain shows",
			tickers: 40, pattern: seqPattern, events: 100000, trainEvents: 8000,
			shards: 2, shardBatch: 4,
		},
		{
			name:    "filter-bound.paced",
			why:     "filter-bound stream and model, open loop at a fixed 20000 events/s in 1 ms quanta: the latency workload; batching that lifts throughput elsewhere shows here as match latency",
			tickers: 40, pattern: seqPattern, events: 40000, trainEvents: 8000,
			rate: pacedRate,
		},
	}
}

func findWorkload(name string) *spec {
	for _, s := range workloads() {
		if s.name == name {
			return s
		}
	}
	return nil
}

// serveArgs are the dlacep-serve flags beyond -listen and -model.
func (s *spec) serveArgs() []string {
	if s.shards > 1 {
		return []string{"-shards", strconv.Itoa(s.shards), "-shard-batch", strconv.Itoa(s.shardBatch)}
	}
	return nil
}

// prepared is everything set-up produces for one (workload, seed): the
// served stream pre-formatted as wire lines, the trained model, and the
// exact match set M(s) the served matches are checked against.
type prepared struct {
	spec   *spec
	cfg    core.Config
	events []event.Event
	// wire holds the events as protocol lines; line i is wire[off[i]:off[i+1]].
	wire []byte
	off  []int
	// model is the saved filter and sha its SHA-256: two commits that print
	// the same hash served the same filter.
	model []byte
	sha   string
	// exact is M(s) over the whole served stream, keyed like cep.Match.Key.
	exact map[string]bool
	took  time.Duration
}

// populationSeed pins what a workload keeps fixed across seeds: the ticker
// population (dataset.Stock draws every ticker's base volume from its seed)
// and, through it, the trained filter. QA1's partial-match rate is a
// property of the drawn base volumes — across populations it moves
// cep-bound throughput by +-25 %, which would bury any bound — so --seed
// picks which events of the one population's stream are served instead.
const populationSeed = 1

// The served stream is every slots-th block of blockEvents events of the
// long stream, starting at block seed mod slots: different seeds serve
// disjoint events, yet each samples the whole timeline, so the slow drift
// of the per-ticker volume walks (which moves selectivity between
// neighbouring stretches) is the same for all of them.
const (
	slots       = 8
	blockEvents = 128
)

// prepare generates the workload's stream, trains and calibrates the filter
// on its head through the calls dlacep-train makes, serves the stretch the
// seed selects, computes the exact reference with core.RunECEP and
// pre-formats the wire lines. The same seed yields byte-identical outputs.
func prepare(s *spec, sc scale, seed int64) (*prepared, error) {
	start := time.Now()
	pat := s.pattern()
	pats := []*pattern.Pattern{pat}
	w := int(pat.Window.Size)
	cfg := core.Config{MarkSize: 2 * w, StepSize: w, Hidden: sc.hidden, Layers: sc.layers, Seed: populationSeed}

	nTrain, n := s.trainEvents/sc.shrink, s.events/sc.shrink
	blocks := (n + blockEvents - 1) / blockEvents
	sc0 := dataset.DefaultStockConfig(nTrain+slots*blocks*blockEvents, populationSeed)
	sc0.Tickers = s.tickers
	long := dataset.Stock(sc0)
	trainSt := long.Slice(0, nTrain)
	picked := make([]event.Event, 0, blocks*blockEvents)
	for b := 0; b < blocks; b++ {
		lo := nTrain + (b*slots+int(uint64(seed)%slots))*blockEvents
		picked = append(picked, long.Events[lo:lo+blockEvents]...)
	}
	// NewStream numbers the events from 0, as the server numbers a
	// connection's.
	served := event.NewStream(long.Schema, picked[:n])

	lab, err := label.New(trainSt.Schema, pats...)
	if err != nil {
		return nil, err
	}
	net, err := core.NewEventNetwork(trainSt.Schema, pats, cfg)
	if err != nil {
		return nil, err
	}
	windows := dataset.Windows(trainSt, cfg.MarkSize)
	opt := core.DefaultTrainOptions()
	opt.MaxEpochs = sc.epochs
	opt.Seed = populationSeed
	if _, err := net.Fit(windows, lab, opt); err != nil {
		return nil, fmt.Errorf("training %s: %w", s.name, err)
	}
	if _, err := net.Calibrate(windows, lab, 0.9); err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", s.name, err)
	}
	var model bytes.Buffer
	if err := net.Save(&model, pats); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(model.Bytes())

	ref, err := core.RunECEP(served.Schema, pats, served)
	if err != nil {
		return nil, fmt.Errorf("exact reference for %s: %w", s.name, err)
	}

	p := &prepared{
		spec: s, cfg: cfg, events: served.Events,
		model: model.Bytes(), sha: hex.EncodeToString(sum[:]),
		exact: ref.Keys,
	}
	p.wire, p.off = formatLines(served.Events)
	p.took = time.Since(start)
	return p, nil
}

// formatLines renders events as "TYPE,TS,ATTR..." lines, the format
// server.Client.Send writes, into one buffer with line offsets.
func formatLines(events []event.Event) (wire []byte, off []int) {
	off = make([]int, 0, len(events)+1)
	for i := range events {
		off = append(off, len(wire))
		wire = append(wire, events[i].Type...)
		wire = append(wire, ',')
		wire = strconv.AppendInt(wire, events[i].Ts, 10)
		for _, a := range events[i].Attrs {
			wire = append(wire, ',')
			wire = strconv.AppendFloat(wire, a, 'g', -1, 64)
		}
		wire = append(wire, '\n')
	}
	return wire, append(off, len(wire))
}

// loadModel rebuilds a fresh filter instance, and the patterns and schema
// the server will see, from the saved model — what dlacep-serve does once
// per connection.
func (p *prepared) loadModel() (core.EventFilter, []*pattern.Pattern, *event.Schema, error) {
	return core.LoadModel(bytes.NewReader(p.model))
}
