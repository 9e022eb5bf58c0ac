// Command dlacep-bench regenerates the paper's experimental figures.
//
// Usage:
//
//	dlacep-bench -fig 8           # reproduce Figure 8 at quick scale
//	dlacep-bench -fig all -csv    # everything, CSV output
//	dlacep-bench -fig 12 -scale paper
//	dlacep-bench -ramp -scale smoke -ramp-out ramp.json   # adaptive load ramp
//
// See DESIGN.md for the figure-to-module index and EXPERIMENTS.md for
// recorded quick-scale results against the paper's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dlacep/internal/harness"
	"dlacep/internal/obs"
	"dlacep/internal/obs/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 8, 9, 10, 11, 12, 13, 14, ablations, or all")
	scaleName := flag.String("scale", "quick", "experiment scale: smoke, quick, or paper")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	shards := flag.Int("shards", 0, "run DLACEP measurement passes through the key-sharded pipeline with this many marking workers; 0 or 1 sequential")
	shardBatch := flag.Int("shard-batch", 1, "windows batched per filter call in -shards mode (K)")
	metricsOut := flag.String("metrics-out", "", "write the cumulative JSON telemetry snapshot to this file after all figures")
	traceOut := flag.String("trace-out", "", "write sampled per-window pipeline traces (JSON Lines) to this file after all figures; analyze with dlacep-inspect -trace")
	traceEvery := flag.Int("trace-every", 64, "with -trace-out: sample one window trace per this many events")
	traceRing := flag.Int("trace-ring", trace.DefaultRing, "with -trace-out: retain at most this many completed traces")
	ramp := flag.Bool("ramp", false, "run the adaptive load-ramp scenario (controller vs pinned-exact baseline) instead of figures")
	sloP99 := flag.Duration("slo-p99", 0, "with -ramp: per-window p99 SLO handed to the controller (0 = auto-calibrate)")
	rampOut := flag.String("ramp-out", "", "with -ramp: write the RampReport JSON to this file")
	flag.Parse()

	var sc harness.Scale
	switch *scaleName {
	case "smoke":
		sc = harness.Smoke()
	case "quick":
		sc = harness.Quick()
	case "paper":
		sc = harness.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (smoke|quick|paper)\n", *scaleName)
		os.Exit(2)
	}
	sc.Shards = *shards
	sc.ShardBatch = *shardBatch
	if *metricsOut != "" {
		sc.Obs = obs.NewRegistry()
	}
	if *traceOut != "" {
		sc.Trace = trace.New(*traceEvery, *traceRing)
	}

	if *ramp {
		if err := runRamp(sc, *sloP99, *rampOut, *csv); err != nil {
			fmt.Fprintln(os.Stderr, "dlacep-bench:", err)
			os.Exit(1)
		}
		writeSnapshots(sc, *metricsOut, *traceOut)
		return
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = harness.Figures()
	}
	for _, f := range figs {
		start := time.Now()
		reports, err := harness.Run(f, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f, err)
			os.Exit(1)
		}
		for _, rep := range reports {
			if *csv {
				fmt.Print(rep.CSV())
			} else {
				fmt.Println(rep.String())
			}
		}
		if !*csv {
			fmt.Printf("(figure %s took %v at scale %s)\n\n", f, time.Since(start).Round(time.Millisecond), sc.Name)
		}
	}
	writeSnapshots(sc, *metricsOut, *traceOut)
}

// runRamp executes the adaptive load-ramp scenario and prints its report.
func runRamp(sc harness.Scale, slo time.Duration, out string, csv bool) error {
	if sc.Obs == nil {
		// The scenario's recall accounting and controller telemetry flow
		// through the registry even when no -metrics-out was requested.
		sc.Obs = obs.NewRegistry()
	}
	start := time.Now()
	rep, err := harness.LoadRamp(sc, harness.RampOptions{SLO: slo})
	if err != nil {
		return err
	}
	text := rep.Rows()
	if csv {
		fmt.Print(text.CSV())
	} else {
		fmt.Println(text.String())
		fmt.Printf("(ramp took %v at scale %s)\n\n", time.Since(start).Round(time.Millisecond), sc.Name)
	}
	if out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("ramp report written to %s\n", out)
	}
	return nil
}

// writeSnapshots exports the cumulative telemetry and trace files, when
// their flags requested them.
func writeSnapshots(sc harness.Scale, metricsOut, traceOut string) {
	if sc.Obs != nil && metricsOut != "" {
		raw, err := json.MarshalIndent(sc.Obs.Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlacep-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(metricsOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dlacep-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics snapshot written to %s\n", metricsOut)
	}
	if sc.Trace != nil && traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlacep-bench:", err)
			os.Exit(1)
		}
		snap := sc.Trace.Snapshot()
		if err := snap.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "dlacep-bench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dlacep-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%d window traces written to %s (1 per %d events; analyze with dlacep-inspect -trace)\n",
			len(snap.Traces), traceOut, sc.Trace.Stride())
	}
}
