// Command dlacep-serve exposes a trained DLACEP model as a TCP match
// service, or streams a CSV file to such a service as a client.
//
// Server, from a single model file:
//
//	dlacep-serve -model model.json -listen :7878
//
// Server, from a model registry with drift-triggered hot swapping (the
// active version is served; a lifecycle controller audits it, retrains on
// drift, and swaps in validated candidates without dropping connections):
//
//	dlacep-serve -registry ./registry -family stock -listen :7878 \
//	  -admin 127.0.0.1:7879
//
// Client (streams a dataset and prints matches):
//
//	dlacep-serve -connect localhost:7878 -data stream.csv
//
// Protocol: clients send "TYPE,TS,ATTR1,..." lines; the server answers with
// JSON lines carrying matches and, after FLUSH or EOF, a summary.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"dlacep/internal/adapt"
	"dlacep/internal/core"
	"dlacep/internal/event"
	"dlacep/internal/lifecycle"
	"dlacep/internal/obs"
	"dlacep/internal/obs/trace"
	"dlacep/internal/server"
	"dlacep/internal/shed"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlacep-serve:", err)
	os.Exit(1)
}

// serveOpts collects the server-mode flags.
type serveOpts struct {
	modelPath  string
	listen     string
	shards     int
	shardBatch int
	admin      string
	pprofOn    bool
	traceEvery int
	traceRing  int
	adaptOn    bool
	sloP99     time.Duration

	registry        string
	family          string
	swapEpsilon     float64
	retrainEpochs   int
	minWindows      int
	checkpointEvery int
	auditEvery      int
}

func main() {
	var o serveOpts
	flag.StringVar(&o.modelPath, "model", "model.json", "trained model (server mode, ignored with -registry)")
	flag.StringVar(&o.listen, "listen", "", "address to serve on, e.g. :7878")
	connect := flag.String("connect", "", "server address to stream to (client mode)")
	dataPath := flag.String("data", "", "stream CSV to send (client mode)")
	flag.IntVar(&o.shards, "shards", 0, "key-sharded serving: marking workers per connection, events hash-partitioned by type; 0 or 1 sequential")
	flag.IntVar(&o.shardBatch, "shard-batch", 1, "windows batched per filter call in -shards mode (K)")
	flag.StringVar(&o.admin, "admin", "", "admin HTTP address for /metrics and /healthz, e.g. 127.0.0.1:7879 (server mode)")
	flag.BoolVar(&o.pprofOn, "pprof", false, "also expose /debug/pprof/ on the admin address")
	flag.IntVar(&o.traceEvery, "trace-every", 0, "sample one per-window pipeline trace per this many events, served on the admin /traces endpoint (0 off; server mode)")
	flag.IntVar(&o.traceRing, "trace-ring", trace.DefaultRing, "completed traces retained for /traces")
	flag.BoolVar(&o.adaptOn, "adapt", false, "run the adaptive degradation controller: connections are served through a mode-switchable processor moved along exact -> filtered -> shedding to hold -slo-p99 (server mode, sequential only)")
	flag.DurationVar(&o.sloP99, "slo-p99", 0, "with -adapt: per-window p99 service-time SLO the controller defends, e.g. 2ms")
	flag.StringVar(&o.registry, "registry", "", "model registry directory; serves the family's active version with hot swapping")
	flag.StringVar(&o.family, "family", "default", "model family within -registry")
	flag.Float64Var(&o.swapEpsilon, "swap-epsilon", 0.02, "promotion slack: candidate F1 may lag live F1 by this much")
	flag.IntVar(&o.retrainEpochs, "retrain-epochs", 10, "epoch bound for drift-triggered retraining")
	flag.IntVar(&o.minWindows, "min-windows", 8, "buffered windows required before a retrain cycle runs")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 0, "checkpoint retraining runs into the registry every N epochs (0 off)")
	flag.IntVar(&o.auditEvery, "audit-every", 0, "drift-audit the live model once per N served windows (0 = library default)")
	flag.Parse()

	switch {
	case o.listen != "":
		runServer(o)
	case *connect != "":
		runClient(*connect, *dataPath)
	default:
		fmt.Fprintln(os.Stderr, "usage: dlacep-serve -listen :7878 -model model.json\n   or: dlacep-serve -listen :7878 -registry dir -family name\n   or: dlacep-serve -connect host:7878 -data stream.csv")
		os.Exit(2)
	}
}

func runServer(o serveOpts) {
	if o.pprofOn && o.admin == "" {
		fatal(fmt.Errorf("-pprof needs -admin"))
	}
	var (
		srv *server.Server
		ctl *lifecycle.Controller
		err error
	)
	if o.registry != "" {
		srv, ctl, err = registryServer(o)
	} else {
		srv, err = fileServer(o)
	}
	if err != nil {
		fatal(err)
	}
	srv.Shards = o.shards
	srv.ShardBatch = o.shardBatch
	if o.traceEvery > 0 {
		srv.Trace = trace.New(o.traceEvery, o.traceRing)
	}
	var actl *adapt.Controller
	if o.adaptOn {
		if o.shards > 1 {
			fatal(fmt.Errorf("-adapt serves through the sequential adaptive processor; drop -shards"))
		}
		if o.sloP99 <= 0 {
			fatal(fmt.Errorf("-adapt needs -slo-p99, e.g. -slo-p99=2ms"))
		}
		if srv.Obs == nil {
			// The controller's sensors and its published ladder state live
			// in the registry even when no -admin listener exports them.
			srv.Obs = obs.NewRegistry()
		}
		patterns := srv.Health().Patterns
		board := core.NewLevelBoard(patterns)
		actl, err = adapt.New(adapt.Config{SLO: o.sloP99}, board, srv.Obs)
		if err != nil {
			fatal(err)
		}
		srv.Board = board
		srv.NewGates = func() []core.Gate {
			gates := make([]core.Gate, patterns)
			for i := range gates {
				gates[i] = shed.NewRandom(0, int64(i)+1)
			}
			return gates
		}
		fmt.Printf("adaptive controller on: %d pattern(s), p99 SLO %v\n", patterns, o.sloP99)
	}
	if o.admin != "" {
		alis, err := net.Listen("tcp", o.admin)
		if err != nil {
			fatal(err)
		}
		endpoints := "/metrics, /traces, /healthz"
		var extra []server.AdminRoute
		if ctl != nil {
			extra = ctl.AdminRoutes()
			endpoints += ", /models, /swap, /rollback"
		}
		if actl != nil {
			extra = append(extra, actl.AdminRoutes()...)
			endpoints += ", /controller"
		}
		if o.pprofOn {
			endpoints += ", /debug/pprof/"
		}
		fmt.Printf("admin endpoints (%s) on %s\n", endpoints, alis.Addr())
		go func() {
			if err := http.Serve(alis, srv.AdminHandler(o.pprofOn, extra...)); err != nil {
				fmt.Fprintln(os.Stderr, "dlacep-serve: admin:", err)
			}
		}()
	}
	if ctl != nil {
		ctl.Start()
		defer ctl.Stop()
	}
	if actl != nil {
		actl.Start()
		defer actl.Stop()
	}
	lis, err := net.Listen("tcp", o.listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving on %s\n", lis.Addr())
	if err := srv.Serve(lis); err != nil {
		fatal(err)
	}
}

// fileServer serves one frozen model file, the pre-registry mode.
func fileServer(o serveOpts) (*server.Server, error) {
	raw, err := os.ReadFile(o.modelPath)
	if err != nil {
		return nil, err
	}
	// Peek once for configuration; per-connection filters reload from the
	// same bytes (trained networks are stateful during inference).
	probe, pats, schema, err := core.LoadModel(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var cfg core.Config
	switch f := probe.(type) {
	case *core.EventNetwork:
		cfg = f.Cfg
	case core.WindowToEvent:
		cfg = f.F.(*core.WindowNetwork).Cfg
	default:
		cfg = core.DefaultConfig(int(pats[0].Window.Size))
	}
	srv, err := server.New(schema, pats, cfg, func() (core.EventFilter, error) {
		f, _, _, err := core.LoadModel(bytes.NewReader(raw))
		return f, err
	})
	if err != nil {
		return nil, err
	}
	if o.admin != "" {
		srv.Obs = obs.NewRegistry()
	}
	fmt.Printf("model %s: %d pattern(s)\n", o.modelPath, len(pats))
	return srv, nil
}

// registryServer serves a family's active registry version under a
// lifecycle controller: drift audits, retraining, shadow validation, and
// atomic hot swaps.
func registryServer(o serveOpts) (*server.Server, *lifecycle.Controller, error) {
	reg, err := lifecycle.Open(o.registry)
	if err != nil {
		return nil, nil, err
	}
	version, err := reg.Active(o.family)
	if err != nil {
		return nil, nil, err
	}
	if version == 0 {
		latest, err := reg.Latest(o.family)
		if err != nil {
			return nil, nil, err
		}
		version = latest.Version
		fmt.Printf("family %q has no promoted version; serving latest v%d\n", o.family, version)
	}
	filter, pats, schema, err := reg.LoadFilter(o.family, version)
	if err != nil {
		return nil, nil, err
	}
	live, ok := filter.(*core.EventNetwork)
	if !ok {
		return nil, nil, fmt.Errorf("registry serving needs an event-network model, %s v%d is %T", o.family, version, filter)
	}
	srv, err := server.New(schema, pats, live.Cfg, func() (core.EventFilter, error) {
		return live.CloneFilter(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	srv.Obs = obs.NewRegistry()
	// Stamp the registry version on the generation counter so /healthz and
	// /models agree from the first connection on.
	if _, err := srv.SwapFilter(version, func() (core.EventFilter, error) {
		return live.CloneFilter(), nil
	}); err != nil {
		return nil, nil, err
	}
	ctl, err := lifecycle.NewController(lifecycle.ControllerConfig{
		Registry:        reg,
		Family:          o.family,
		Schema:          schema,
		Patterns:        pats,
		Core:            live.Cfg,
		Live:            live,
		LiveVersion:     version,
		Swap:            srv.SwapFilter,
		Epsilon:         o.swapEpsilon,
		RetrainEpochs:   o.retrainEpochs,
		MinWindows:      o.minWindows,
		CheckpointEvery: o.checkpointEvery,
		Drift:           core.DriftOptions{AuditEvery: o.auditEvery, Obs: srv.Obs},
		Obs:             srv.Obs,
	})
	if err != nil {
		return nil, nil, err
	}
	srv.OnEvent = ctl.ObserveEvent
	fmt.Printf("registry %s family %q: serving v%d, %d pattern(s)\n", o.registry, o.family, version, len(pats))
	return srv, ctl, nil
}

func runClient(addr, dataPath string) {
	if dataPath == "" {
		fatal(fmt.Errorf("client mode needs -data"))
	}
	f, err := os.Open(dataPath)
	if err != nil {
		fatal(err)
	}
	st, err := event.ReadCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	c, err := server.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	if err := stream(c, st.Events, os.Stdout); err != nil {
		fatal(err)
	}
}

// stream sends events and FLUSH while it prints the server's matches and
// summary to out. Sending runs in its own goroutine: the server writes
// matches while it still reads events, so a client that sent everything
// before its first read would deadlock once both directions' socket
// buffers filled. On success stream returns after the sender has finished;
// on an error it returns at once, and closing the connection ends the
// sender.
func stream(c *server.Client, events []event.Event, out io.Writer) error {
	sent := make(chan error, 1)
	go func() {
		for i := range events {
			if err := c.Send(events[i]); err != nil {
				sent <- err
				return
			}
		}
		sent <- c.Flush()
	}()
	for {
		msg, err := c.Read()
		if err != nil {
			return err
		}
		switch {
		case msg.Err != "":
			return fmt.Errorf("server: %s", msg.Err)
		case msg.Match != nil:
			fmt.Fprintf(out, "match: %v\n", msg.Match.IDs)
		case msg.Summary != nil:
			fmt.Fprintf(out, "summary: %d events, %d matches, filter ratio %.3f, %.0f events/s\n",
				msg.Summary.Events, msg.Summary.Matches, msg.Summary.FilterRatio, msg.Summary.ThroughputS)
			return <-sent
		}
	}
}
