// Package server exposes a trained DLACEP pipeline over TCP with a
// line-oriented protocol, turning the library into a deployable match
// service (the "evaluation engine" box of the paper's Figure 1).
//
// Protocol (newline-delimited, UTF-8):
//
//	client -> server   TYPE,TS,ATTR1[,ATTR2...]      one event per line
//	server -> client   {"match":{"ids":[...],"binding":{...}}}
//	server -> client   {"summary":{...}}             once, when the client
//	                                                 half-closes or sends "FLUSH"
//
// Each connection runs its own incremental Processor; event IDs are
// assigned per connection in arrival order.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dlacep/internal/cep"
	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/obs"
	"dlacep/internal/obs/trace"
	"dlacep/internal/pattern"
	"dlacep/internal/shard"
)

// filterFactory is one immutable generation of the per-connection filter
// constructor; swaps install a new generation atomically.
type filterFactory struct {
	version int
	fn      func() (core.EventFilter, error)
}

// Server evaluates client streams with a shared model. The model is
// resolved per connection through an atomically swappable filter factory
// (see SwapFilter), so a lifecycle controller can hot-swap the served
// model: new connections pick up the new version, in-flight connections
// finish on the instance they started with.
type Server struct {
	schema *event.Schema
	pats   []*pattern.Pattern
	cfg    core.Config
	// factory holds the current filter constructor. Trained networks cache
	// forward activations and are not goroutine-safe, so each connection
	// gets its own instance; the constructor typically reloads a saved
	// model or wraps shared immutable state. Because network filters own
	// their nn.Scratch inference arena, per-connection instances also mean
	// per-connection arenas: every connection goroutine marks windows
	// through its own allocation-free fast path, with no sharing.
	factory atomic.Pointer[filterFactory]
	// Log receives per-connection diagnostics; defaults to log.Printf.
	Log func(format string, args ...any)
	// Obs, when non-nil, is shared by every connection's pipeline and also
	// receives server-level counters (server.connections.total/active,
	// server.events.total). Expose it via AdminHandler.
	Obs *obs.Registry
	// OnEvent, when non-nil, observes every successfully parsed event from
	// every connection (after per-connection ID assignment, before
	// processing) — the tap a lifecycle controller uses for drift auditing
	// and retraining buffers. It is called from connection goroutines
	// concurrently and must be goroutine-safe and fast. Set before Serve.
	OnEvent func(ev event.Event)
	// Shards, when > 1, serves each connection through the key-sharded
	// pipeline (internal/shard) instead of the sequential Processor: events
	// are hash-partitioned by type onto shard-per-core marking workers and
	// the CEP engines run over the merged, globally ID-ordered relay stream.
	// Matches stream to the client as the merge stage emits them. The filter
	// must be cloneable (every shard owns a clone). Set before Serve.
	Shards int
	// ShardBatch is K, the windows batched per filter call in shard mode
	// (shard.Options.Batch); 0 means 1.
	ShardBatch int
	// Trace, when non-nil, is shared by every connection's pipeline: each
	// connection samples per-window critical-path traces into its bounded
	// ring (deterministic 1-of-stride sampling across the interleaved
	// connections). Expose it via AdminHandler's /traces. Set before Serve.
	Trace *trace.Tracer
	// Board, when non-nil, serves every sequential connection through a
	// mode-switchable core.AdaptiveProcessor instead of the static
	// Processor: an adapt.Controller moving the board's per-pattern levels
	// retunes live connections without draining them. Health then reports
	// the degradation posture. Ignored in shard mode (the sharded path is
	// the filtered rung by construction; it stamps traces with the board's
	// level but does not switch modes). Set before Serve.
	Board *core.LevelBoard
	// NewGates, when non-nil alongside Board, constructs the per-pattern
	// shed gates for one connection (each connection's processor owns its
	// gates, like its filter). Without it, patterns degraded to the
	// shedding rung behave as filtered. Set before Serve.
	NewGates func() []core.Gate

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// New builds a server for the given monitored patterns.
func New(schema *event.Schema, pats []*pattern.Pattern, cfg core.Config,
	newFilter func() (core.EventFilter, error)) (*Server, error) {
	if newFilter == nil {
		return nil, fmt.Errorf("server: nil filter constructor")
	}
	if _, err := core.NewPipeline(schema, pats, cfg, core.KeepAllFilter{}); err != nil {
		return nil, err
	}
	s := &Server{
		schema: schema,
		pats:   pats,
		cfg:    cfg,
		Log:    log.Printf,
		conns:  map[net.Conn]bool{},
	}
	s.factory.Store(&filterFactory{version: 1, fn: newFilter})
	return s, nil
}

// SwapFilter atomically replaces the per-connection filter constructor:
// connections accepted afterwards are built with newFilter, in-flight
// connections keep the filter they started with (no connection is dropped).
// version labels the new generation (Health.ModelVersion reports it). It
// returns the previous generation's version.
func (s *Server) SwapFilter(version int, newFilter func() (core.EventFilter, error)) (prev int, err error) {
	if newFilter == nil {
		return 0, fmt.Errorf("server: nil filter constructor")
	}
	old := s.factory.Swap(&filterFactory{version: version, fn: newFilter})
	return old.version, nil
}

// FilterVersion reports the generation new connections are served with.
func (s *Server) FilterVersion() int { return s.factory.Load().version }

// Serve accepts connections on l until Close is called. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.lis = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			s.wg.Wait()
			return net.ErrClosed
		}
		// The generation is fixed at accept time, before the connection
		// counts as active: a swap after that point leaves it on this one.
		gen := s.factory.Load()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() { //dlacep:ignore spscowner sanctioned owner spawn: each connection goroutine builds its own shard pipeline and is the sole dispatcher (ring producer) for it
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			if err := s.handle(conn, gen); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Log("server: connection %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Close stops accepting and closes active connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		return lis.Close()
	}
	return nil
}

// matchMsg and summaryMsg are the server->client wire messages.
type matchMsg struct {
	IDs     []uint64          `json:"ids"`
	Binding map[string]uint64 `json:"binding,omitempty"`
}

type summaryMsg struct {
	Events      int     `json:"events"`
	Relayed     int     `json:"relayed"`
	Matches     int     `json:"matches"`
	FilterRatio float64 `json:"filter_ratio"`
	ThroughputS float64 `json:"events_per_sec"`
}

type wireOut struct {
	Match   *matchMsg   `json:"match,omitempty"`
	Summary *summaryMsg `json:"summary,omitempty"`
	Error   string      `json:"error,omitempty"`
}

func (s *Server) handle(conn net.Conn, gen *filterFactory) error {
	if s.Shards > 1 {
		return s.handleSharded(conn, gen)
	}
	s.Obs.Counter("server.connections.total").Inc()
	activeG := s.Obs.Gauge("server.connections.active")
	activeG.Add(1)
	defer activeG.Add(-1)
	eventsC := s.Obs.Counter("server.events.total")
	filter, err := gen.fn()
	if err != nil {
		return err
	}
	pl, err := core.NewPipeline(s.schema, s.pats, s.cfg, filter)
	if err != nil {
		return err
	}
	pl.Obs = s.Obs
	pl.Trace = s.Trace
	var proc interface {
		Push(ev event.Event) ([]*cep.Match, error)
		Flush() ([]*cep.Match, error)
		Result() *core.Result
	}
	if s.Board != nil {
		var gates []core.Gate
		if s.NewGates != nil {
			gates = s.NewGates()
		}
		pl.Board = s.Board
		proc, err = pl.NewAdaptiveProcessor(s.Board, gates)
	} else {
		proc, err = pl.NewProcessor()
	}
	if err != nil {
		return err
	}
	r := bufio.NewScanner(conn)
	r.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	w := bufio.NewWriter(conn)
	enc := json.NewEncoder(w)

	writeErr := func(err error) error {
		_ = enc.Encode(wireOut{Error: err.Error()})
		return w.Flush()
	}
	var nextID uint64
	flushed := false
	finish := func() error {
		if flushed {
			return nil
		}
		flushed = true
		ms, err := proc.Flush()
		if err != nil {
			return writeErr(err)
		}
		for _, m := range ms {
			if err := s.writeMatch(enc, m); err != nil {
				return err
			}
		}
		res := proc.Result()
		_ = enc.Encode(wireOut{Summary: &summaryMsg{
			Events:      res.EventsTotal,
			Relayed:     res.EventsRelayed,
			Matches:     len(res.Matches),
			FilterRatio: res.FilterRatio(),
			ThroughputS: res.Throughput(),
		}})
		return w.Flush()
	}

	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line == "" {
			continue
		}
		if line == "FLUSH" {
			if err := finish(); err != nil {
				return err
			}
			continue
		}
		ev, err := s.parseEvent(line, nextID)
		if err != nil {
			return writeErr(err)
		}
		nextID++
		eventsC.Inc()
		if s.OnEvent != nil {
			s.OnEvent(ev)
		}
		ms, err := proc.Push(ev)
		if err != nil {
			return writeErr(err)
		}
		for _, m := range ms {
			if err := s.writeMatch(enc, m); err != nil {
				return err
			}
		}
		if len(ms) > 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return finish()
}

// handleSharded runs one connection through the key-sharded pipeline.
// Matches arrive on the merge goroutine (shard.Options.OnMatch) while this
// goroutine keeps parsing, so client writes synchronize on a mutex — the
// only lock in shard mode, and off the marking hot path entirely.
func (s *Server) handleSharded(conn net.Conn, gen *filterFactory) error {
	s.Obs.Counter("server.connections.total").Inc()
	activeG := s.Obs.Gauge("server.connections.active")
	activeG.Add(1)
	defer activeG.Add(-1)
	eventsC := s.Obs.Counter("server.events.total")
	filter, err := gen.fn()
	if err != nil {
		return err
	}
	pl, err := core.NewPipeline(s.schema, s.pats, s.cfg, filter)
	if err != nil {
		return err
	}
	pl.Obs = s.Obs
	pl.Trace = s.Trace

	w := bufio.NewWriter(conn)
	enc := json.NewEncoder(w)
	var wmu sync.Mutex
	write := func(msg wireOut) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := enc.Encode(msg); err != nil {
			return err
		}
		return w.Flush()
	}
	sp, err := shard.New(pl, shard.Options{
		Shards: s.Shards,
		Batch:  s.ShardBatch,
		OnMatch: func(m *cep.Match) {
			msg := &matchMsg{IDs: m.IDs()}
			if len(m.Binding) > 0 {
				msg.Binding = make(map[string]uint64, len(m.Binding))
				for alias, e := range m.Binding {
					msg.Binding[alias] = e.ID
				}
			}
			_ = write(wireOut{Match: msg})
		},
	})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_, _ = sp.Close() // reader error path: join the shard goroutines
		}
	}()

	r := bufio.NewScanner(conn)
	r.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var nextID uint64
	finish := func() error {
		if closed {
			return nil
		}
		closed = true
		res, err := sp.Close()
		if err != nil {
			return write(wireOut{Error: err.Error()})
		}
		return write(wireOut{Summary: &summaryMsg{
			Events:      res.EventsTotal,
			Relayed:     res.EventsRelayed,
			Matches:     len(res.Matches),
			FilterRatio: res.FilterRatio(),
			ThroughputS: res.Throughput(),
		}})
	}
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line == "" {
			continue
		}
		if line == "FLUSH" {
			if err := finish(); err != nil {
				return err
			}
			continue
		}
		ev, err := s.parseEvent(line, nextID)
		if err != nil {
			return write(wireOut{Error: err.Error()})
		}
		nextID++
		eventsC.Inc()
		if s.OnEvent != nil {
			s.OnEvent(ev)
		}
		if err := sp.Push(ev); err != nil {
			return write(wireOut{Error: err.Error()})
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return finish()
}

func (s *Server) writeMatch(enc *json.Encoder, m *cep.Match) error {
	msg := &matchMsg{IDs: m.IDs()}
	if len(m.Binding) > 0 {
		msg.Binding = make(map[string]uint64, len(m.Binding))
		for alias, e := range m.Binding {
			msg.Binding[alias] = e.ID
		}
	}
	return enc.Encode(wireOut{Match: msg})
}

// parseEvent parses "TYPE,TS,ATTR1[,ATTR2...]".
func (s *Server) parseEvent(line string, id uint64) (event.Event, error) {
	parts := strings.Split(line, ",")
	if len(parts) < 2+0 {
		return event.Event{}, fmt.Errorf("malformed event %q (want TYPE,TS,ATTRS...)", line)
	}
	if len(parts)-2 != s.schema.Len() {
		return event.Event{}, fmt.Errorf("event %q has %d attributes, schema wants %d", line, len(parts)-2, s.schema.Len())
	}
	ts, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return event.Event{}, fmt.Errorf("bad timestamp in %q: %v", line, err)
	}
	ev := event.Event{ID: id, Type: parts[0], Ts: ts, Attrs: make([]float64, s.schema.Len())}
	for i, f := range parts[2:] {
		if ev.Attrs[i], err = strconv.ParseFloat(f, 64); err != nil {
			return event.Event{}, fmt.Errorf("bad attribute %d in %q: %v", i, line, err)
		}
	}
	return ev, nil
}
