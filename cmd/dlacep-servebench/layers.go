package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dlacep/internal/cep"
	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/obs/trace"
	"dlacep/internal/server"
	"dlacep/internal/shard"
)

// perLayer lists the per-layer metrics in BENCHMARK.json order. Layers are
// the repo's packages; the traced run times each from outside, around the
// calls this benchmark makes into its public functions.
var perLayer = []metricDef{
	{"nn.mark_ns_per_event", "ns/event", "lower", 0},
	{"nn.mark_ns_per_window_p50", "ns", "lower", 0},
	{"nn.allocs_per_window", "count", "lower", 0},
	{"cep.process_ns_per_relayed_event", "ns/event", "lower", 0},
	{"cep.instances_per_event", "count/event", "lower", 0},
	{"cep.matches_per_event", "count/event", "higher", 0},
	{"cep.allocs_per_match", "count", "lower", 0},
	{"core.self_ns_per_event", "ns/event", "lower", 0},
	{"core.dedup_ns_per_event", "ns/event", "lower", 0},
	{"core.filter_ratio", "ratio", "higher", 0},
	{"core.windows", "count", "lower", 0},
	{"shard.wall_ns_per_event", "ns/event", "lower", 0},
	{"shard.ring_wait_share", "ratio", "lower", 0},
	{"shard.merge_wait_share", "ratio", "lower", 0},
	{"shard.skew", "ratio", "lower", 0},
	{"server.self_ns_per_event", "ns/event", "lower", 0},
	{"server.bytes_in_per_event", "B/event", "lower", 0},
	{"server.bytes_out_per_event", "B/event", "lower", 0},
	{"server.allocs_per_event", "count/event", "lower", 0},
	{"server.match_latency_p99_ms", "ms", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.write_blocked_frac", "ratio", "lower", 0},
	{"tile_coverage", "ratio", "higher", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
}

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was made; Parent is the enclosing span's ID or -1; Window is
// the first event ID of the marking window the call worked on, or the
// event's own ID for per-event calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Window uint64 `json:"window"`
}

// recorder keeps spans in memory for one goroutine; nesting follows the
// call stack, so a span begun inside another is its child.
type recorder struct {
	base  time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) begin(layer, name string, window uint64) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Window: window})
	r.open = append(r.open, id)
	r.spans[id].Start = int64(time.Since(r.base))
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].End = int64(time.Since(r.base))
	r.open = r.open[:len(r.open)-1]
}

// selfByName sums, per "layer.name", the self time of the spans recorded
// from index from on: each span's duration minus the part its direct
// children cover.
func selfByName(spans []span, from int) map[string]time.Duration {
	self := make([]int64, len(spans))
	for i := from; i < len(spans); i++ {
		d := spans[i].End - spans[i].Start
		self[i] += d
		if p := spans[i].Parent; p >= from {
			self[p] -= d
		}
	}
	out := map[string]time.Duration{}
	for i := from; i < len(spans); i++ {
		out[spans[i].Layer+"."+spans[i].Name] += time.Duration(self[i])
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedFilter wraps the served filter so every Mark the pipeline makes
// becomes an "nn" span under the core.Push span that caused it.
type timedFilter struct {
	inner core.EventFilter
	rec   *recorder
}

func (f *timedFilter) Mark(window []event.Event) []bool {
	id := f.rec.begin("nn", "mark", window[0].ID)
	marks := f.inner.Mark(window)
	f.rec.end(id)
	return marks
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// markingWindows cuts events into the windows core.Processor marks: full
// windows of size mark every step events, then the trailing partial one.
func markingWindows(events []event.Event, mark, step int) [][]event.Event {
	var out [][]event.Event
	lo := 0
	for ; lo+mark <= len(events); lo += step {
		out = append(out, events[lo:lo+mark])
	}
	if lo < len(events) {
		out = append(out, events[lo:])
	}
	return out
}

// runTraced measures one workload layer by layer, in-process, over the
// prepared stream, and writes the spans as JSON Lines. The layers run one
// after another, each timed around this file's calls into its package.
func runTraced(e *env, s *spec, seed int64) (*outcome, error) {
	p, _, err := setUp(s, e.sc, seed, 1)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}, sha: p.sha, events: len(p.events), passes: 1}
	for _, d := range perLayer {
		o.metrics[d.name] = 0 // layers a workload does not run report 0
	}
	rec := newRecorder()
	n := float64(len(p.events))

	// Layer nn: the filter alone over the stream's marking windows.
	if err := timeFilter(p, rec, o); err != nil {
		return nil, err
	}

	// Layers core, cep and (sharded workload) shard. assembly is the part of
	// an untraced core.Processor run outside its filter and CEP stages.
	var assembly time.Duration
	if s.shards > 1 {
		err = timeShard(p, o)
	} else {
		assembly, err = timeCore(p, rec, o, e.log)
	}
	if err != nil {
		return nil, err
	}

	// Layer server: the in-process server at saturation, same client.
	allocs0 := mallocs()
	cv, err := serveInProcess(p, 0)
	if err != nil {
		return nil, err
	}
	allocs := mallocs() - allocs0
	t := account(cv, p.exact)
	o.attempted, o.failed = t.attempted, t.failed
	o.problems = append(o.problems, t.problems...)
	if cv.summary == nil || cv.summary.EPS <= 0 {
		o.problemf("the in-process connection ended without a usable summary")
		return o, nil
	}
	// The summary's events_per_sec is events over the pipeline's own clock
	// for this very connection — filter plus CEP stages for the sequential
	// processor, the whole sharded pipeline's wall otherwise — so the
	// server's share is what is left of the connection's wall time, less
	// the processor's assembly (which that clock does not see).
	wall := cv.summaryAt
	pipeline := time.Duration(n / cv.summary.EPS * float64(time.Second))
	serverSelf := wall - pipeline - assembly
	if serverSelf < 0 {
		serverSelf = 0
	}
	o.metrics["server.self_ns_per_event"] = float64(serverSelf) / n
	o.metrics["server.bytes_in_per_event"] = float64(cv.bytesOut) / n
	o.metrics["server.bytes_out_per_event"] = float64(cv.bytesIn) / n
	o.metrics["server.allocs_per_event"] = float64(allocs) / n
	o.metrics["server.match_latency_p99_ms"] = percentile(t.latencyMS, 99)
	o.metrics["loadgen.write_blocked_frac"] = cv.writeBlocked.Seconds() / wall.Seconds()
	// The sequential layers were timed apart; together they should account
	// for the connection's wall time. Sharded layers overlap in time, so
	// there the tile is the pipeline's wall plus the server's remainder.
	tiled := float64(serverSelf) + n*(o.metrics["core.self_ns_per_event"]+o.metrics["core.dedup_ns_per_event"]+o.metrics["nn.mark_ns_per_event"]) +
		o.metrics["cep.process_ns_per_relayed_event"]*n*(1-o.metrics["core.filter_ratio"])
	if s.shards > 1 {
		tiled = float64(serverSelf + pipeline)
	}
	o.metrics["tile_coverage"] = tiled / float64(wall)

	if s.rate > 0 {
		// The paced workload's generator check: the same open-loop schedule
		// against the in-process server.
		pcv, err := serveInProcess(p, s.rate)
		if err != nil {
			return nil, err
		}
		o.metrics["loadgen.late_p99_ms"] = lateP99MS(pcv)
		o.metrics["server.match_latency_p99_ms"] = percentile(account(pcv, p.exact).latencyMS, 99)
		if pcv.summaryAt > 0 {
			o.metrics["loadgen.write_blocked_frac"] = pcv.writeBlocked.Seconds() / pcv.summaryAt.Seconds()
		}
	}
	path := filepath.Join(e.workDir, fmt.Sprintf("%s.seed%d.spans.jsonl", s.name, seed))
	if err := writeSpans(path, rec.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "  %d spans written to %s\n", len(rec.spans), path)
	return o, nil
}

// timeFilter times the filter alone: Mark per window for the sequential
// workloads, MarkBatch over each shard's own sub-stream for the sharded one
// (a shard assembles windows from the events routed to it).
func timeFilter(p *prepared, rec *recorder, o *outcome) error {
	filter, _, _, err := p.loadModel()
	if err != nil {
		return err
	}
	streams := [][]event.Event{p.events}
	batch := 1
	if k := p.spec.shards; k > 1 {
		streams = make([][]event.Event, k)
		for _, ev := range p.events {
			i := shard.Partition(ev.Type, k)
			streams[i] = append(streams[i], ev)
		}
		batch = p.spec.shardBatch
	}
	var windows [][]event.Event
	for _, st := range streams {
		windows = append(windows, markingWindows(st, p.cfg.MarkSize, p.cfg.StepSize)...)
	}
	bm, _ := filter.(core.BatchMarker)
	filter.Mark(windows[0]) // build the inference arena before counting
	var perWindow []float64
	first := len(rec.spans)
	allocs0 := mallocs()
	for lo := 0; lo < len(windows); lo += batch {
		hi := lo + batch
		if hi > len(windows) {
			hi = len(windows)
		}
		id := rec.begin("nn", "mark.alone", windows[lo][0].ID)
		if batch > 1 && bm != nil {
			bm.MarkBatch(windows[lo:hi])
		} else {
			filter.Mark(windows[lo])
		}
		rec.end(id)
	}
	allocs := mallocs() - allocs0
	var total int64
	for _, sp := range rec.spans[first:] {
		total += sp.End - sp.Start
		perWindow = append(perWindow, float64(sp.End-sp.Start)/float64(batch))
	}
	o.metrics["nn.mark_ns_per_event"] = float64(total) / float64(len(p.events))
	o.metrics["nn.mark_ns_per_window_p50"] = percentile(perWindow, 50)
	o.metrics["nn.allocs_per_window"] = float64(allocs) / float64(len(windows))
	o.metrics["core.windows"] = float64(len(windows))
	return nil
}

// timeCore runs core.Processor twice over the stream — untraced, then with
// a span around every Push and every Mark beneath it and the relay stream
// captured — and replays the captured relay stream through bare cep
// engines. Quantities of one run are subtracted only from each other where
// possible: core's self time is the Push spans minus their nn children
// minus that run's own Result.CEPTime (what is left is window assembly and
// the relay horizon), and the dedup the engine set does on top of the bare
// engines is Result.CEPTime minus the replay — a difference of two runs,
// so it carries their noise. It returns the untraced run's time outside its
// filter and CEP stages.
func timeCore(p *prepared, rec *recorder, o *outcome, log io.Writer) (time.Duration, error) {
	plainRes, plain, err := runProcessor(p)
	if err != nil {
		return 0, err
	}

	filter, pats, schema, err := p.loadModel()
	if err != nil {
		return 0, err
	}
	pl, err := core.NewPipeline(schema, pats, p.cfg, &timedFilter{inner: filter, rec: rec})
	if err != nil {
		return 0, err
	}
	var relayed []event.Event
	pl.OnRelay = func(batch []event.Event) { relayed = append(relayed, batch...) }
	proc, err := pl.NewProcessor()
	if err != nil {
		return 0, err
	}
	first := len(rec.spans)
	start := time.Now()
	for i := range p.events {
		id := rec.begin("core", "push", p.events[i].ID)
		_, err := proc.Push(p.events[i])
		rec.end(id)
		if err != nil {
			return 0, err
		}
	}
	id := rec.begin("core", "flush", 0)
	_, err = proc.Flush()
	rec.end(id)
	if err != nil {
		return 0, err
	}
	traced := time.Since(start)
	res := proc.Result()
	self := selfByName(rec.spans, first)
	coreSelf := self["core.push"] + self["core.flush"] - res.CEPTime

	// Layer cep: the relay stream through the engines alone.
	engines := make([]*cep.Engine, len(pats))
	for i, pat := range pats {
		if engines[i], err = cep.New(pat, schema); err != nil {
			return 0, err
		}
	}
	first = len(rec.spans)
	matches := 0
	allocs0 := mallocs()
	for i := range relayed {
		id := rec.begin("cep", "process", relayed[i].ID)
		for _, en := range engines {
			matches += len(en.Process(relayed[i]))
		}
		rec.end(id)
	}
	id = rec.begin("cep", "flush", 0)
	for _, en := range engines {
		matches += len(en.Flush())
	}
	rec.end(id)
	allocs := mallocs() - allocs0
	cepSelf := selfByName(rec.spans, first)
	cepTime := cepSelf["cep.process"] + cepSelf["cep.flush"]
	var instances int64
	for _, en := range engines {
		instances += en.Stats().Instances
	}

	n := float64(len(p.events))
	o.metrics["core.self_ns_per_event"] = math.Max(0, float64(coreSelf)) / n
	o.metrics["core.dedup_ns_per_event"] = math.Max(0, float64(res.CEPTime-cepTime)) / n
	o.metrics["core.filter_ratio"] = res.FilterRatio()
	if len(relayed) > 0 {
		o.metrics["cep.process_ns_per_relayed_event"] = float64(cepTime) / float64(len(relayed))
	}
	o.metrics["cep.instances_per_event"] = float64(instances) / n
	o.metrics["cep.matches_per_event"] = float64(matches) / n
	if matches > 0 {
		o.metrics["cep.allocs_per_match"] = float64(allocs) / float64(matches)
	}
	o.metrics["trace_overhead_frac"] = (traced - plain).Seconds() / plain.Seconds()
	fmt.Fprintf(log, "  core cross-check: spans say filter %v, cep replay %v; Result says FilterTime %v, CEPTime %v\n",
		self["nn.mark"].Round(time.Millisecond), cepTime.Round(time.Millisecond),
		res.FilterTime.Round(time.Millisecond), res.CEPTime.Round(time.Millisecond))
	return plain - plainRes.FilterTime - plainRes.CEPTime, nil
}

// timeShard runs the sharded pipeline alone with the repo's own window
// tracer attached and reads ring and merge waiting off trace.Aggregate. The
// shards run the filter and the merge stage runs the engines inside that
// wall time, so cep figures come from the run's own Result.
func timeShard(p *prepared, o *outcome) error {
	filter, pats, schema, err := p.loadModel()
	if err != nil {
		return err
	}
	pl, err := core.NewPipeline(schema, pats, p.cfg, filter)
	if err != nil {
		return err
	}
	// One window in 16 is traced into a ring large enough to keep them all.
	const stride = 16
	pl.Trace = trace.New(stride, len(p.events)/stride+1)
	sp, err := shard.New(pl, shard.Options{Shards: p.spec.shards, Batch: p.spec.shardBatch})
	if err != nil {
		return err
	}
	perShard := make([]int, p.spec.shards)
	start := time.Now()
	for i := range p.events {
		if err := sp.Push(p.events[i]); err != nil {
			_, _ = sp.Close()
			return err
		}
	}
	res, err := sp.Close()
	if err != nil {
		return err
	}
	wall := time.Since(start)
	most := 0
	for i := range p.events {
		perShard[shard.Partition(p.events[i].Type, p.spec.shards)]++
	}
	for _, c := range perShard {
		if c > most {
			most = c
		}
	}
	n := float64(len(p.events))
	o.metrics["shard.wall_ns_per_event"] = float64(wall) / n
	o.metrics["shard.skew"] = float64(most) * float64(p.spec.shards) / n
	for _, st := range trace.Aggregate(pl.Trace.Snapshot().Traces).Stages {
		switch st.Stage {
		case trace.StageNames[trace.StageRingWait]:
			o.metrics["shard.ring_wait_share"] = st.Share
		case trace.StageNames[trace.StageMergeWait]:
			o.metrics["shard.merge_wait_share"] = st.Share
		}
	}
	o.metrics["core.filter_ratio"] = res.FilterRatio()
	if res.EventsRelayed > 0 {
		o.metrics["cep.process_ns_per_relayed_event"] = float64(res.CEPTime) / float64(res.EventsRelayed)
	}
	for _, st := range res.CEPStats {
		o.metrics["cep.instances_per_event"] += float64(st.Instances) / n
		o.metrics["cep.matches_per_event"] += float64(st.Matches) / n
	}
	return nil
}

// serveInProcess serves the prepared model from an in-process server.Server
// on a loopback listener and drives it with the benchmark's own client.
func serveInProcess(p *prepared, rate int) (*conversation, error) {
	_, pats, schema, err := p.loadModel()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(schema, pats, p.cfg, func() (core.EventFilter, error) {
		f, _, _, err := p.loadModel()
		return f, err
	})
	if err != nil {
		return nil, err
	}
	srv.Shards, srv.ShardBatch = p.spec.shards, p.spec.shardBatch
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	cv, derr := drive(lis.Addr().String(), p, rate)
	cerr := srv.Close()
	if err := <-served; err != nil && !errors.Is(err, net.ErrClosed) {
		return nil, fmt.Errorf("in-process server: %w", err)
	}
	if derr != nil {
		return nil, derr
	}
	return cv, cerr
}
