package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// resultFile is what -out writes and -agree reads: the environment the
// numbers were taken in and, per workload, every run's values.
type resultFile struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	PacedRate  int     `json:"paced_rate_eps"`
}

type workloadResult struct {
	Name string `json:"name"`
	// Events is the number of events one pass sends.
	Events int `json:"events"`
	// Seeds and ModelSHA256 are per run: run i used Seeds[i] and served the
	// model with hash ModelSHA256[i].
	Seeds       []int64                  `json:"seeds"`
	ModelSHA256 []string                 `json:"model_sha256"`
	Attempted   int                      `json:"attempted"`
	Failed      int                      `json:"failed"`
	Problems    []string                 `json:"problems,omitempty"`
	EndToEnd    map[string]metricSummary `json:"end_to_end"`
	PerLayer    map[string]float64       `json:"per_layer,omitempty"`
}

// metricSummary is one end-to-end metric over a workload's runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median, the run-to-run noise the bound is judged by.
	Spread float64 `json:"spread"`
}

func summarize(d metricDef, values []float64) metricSummary {
	q1, q3 := quartiles(values)
	return metricSummary{
		Unit: d.unit, Better: d.better, Bound: d.bound, Values: values,
		Median: median(values), Q1: q1, Q3: q3, Spread: spread(values),
	}
}

func currentEnvironment(root string) environment {
	commit := "unknown" // a checkout without .git has no commit to name
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		PacedRate:  pacedRate,
	}
}

func writeResult(path string, r *resultFile) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printMetrics prints one run's metrics by name with their units.
func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// agree compares two result files of the same benchmark. It refuses files
// that did not serve the same models over the same event counts, prints a
// row per (workload, metric), and reports whether any median differs by
// more than its bound. A metric whose own spread exceeds the bound is
// unresolved: the runs cannot tell a difference of that size from noise.
func agree(w io.Writer, pathA, pathB string) (ok bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]*workloadResult{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	if len(a.Workloads) != len(b.Workloads) {
		return false, fmt.Errorf("the files hold %d and %d workloads", len(a.Workloads), len(b.Workloads))
	}
	fmt.Fprintf(w, "%-22s %-22s %12s %12s %12s %12s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "[q1,q3] A", "median B", "[q1,q3] B", "diff", "spread", "bound", "verdict")
	differs, unresolved := 0, 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			return false, fmt.Errorf("workload %s is missing from %s", wa.Name, pathB)
		}
		if wa.Events != wb.Events {
			return false, fmt.Errorf("workload %s sent %d events per pass in one file and %d in the other", wa.Name, wa.Events, wb.Events)
		}
		if strings.Join(wa.ModelSHA256, ",") != strings.Join(wb.ModelSHA256, ",") {
			return false, fmt.Errorf("workload %s served different models in the two files (SHA-256 lists differ)", wa.Name)
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			diff := math.Abs(mb.Median-ma.Median) / math.Abs(ma.Median)
			noise := math.Max(ma.Spread, mb.Spread)
			verdict := "agree"
			switch {
			case diff > d.bound:
				verdict = "DIFFERS"
				differs++
			case noise > d.bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-22s %-22s %12.5g %12s %12.5g %12s %6.1f%% %6.1f%% %5.1f%%  %s\n",
				wa.Name, d.name, ma.Median, fmt.Sprintf("[%.4g,%.4g]", ma.Q1, ma.Q3),
				mb.Median, fmt.Sprintf("[%.4g,%.4g]", mb.Q1, mb.Q3), 100*diff, 100*noise, 100*d.bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d differ, %d unresolved (spread above bound)\n", differs, unresolved)
	return differs == 0, nil
}
