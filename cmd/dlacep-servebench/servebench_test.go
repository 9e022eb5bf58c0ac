package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianQuartilesSpread(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(v, n=4).
	cases := []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{20, 10}, 15, 7.5, 22.5},
		{[]float64{4, 1, 9, 16, 25}, 9, 2.5, 20.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if m := median(c.v); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.v, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := spread(nil); s != 0 {
		t.Errorf("spread of nothing = %v", s)
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[99-i] = float64(i + 1) // 100..1: percentile must sort a copy
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if v[0] != 100 {
		t.Error("percentile reordered its input")
	}
	// The highest percentile with ten samples beyond it.
	for n, want := range map[int]float64{10: 0, 19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := supportedPercentile(n); got != want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestPacerAbsoluteSchedule stalls one send and checks that due times stay
// on the absolute grid, the backlog is sent without sleeping, and lateness
// is measured against the grid, not against the previous send.
func TestPacerAbsoluteSchedule(t *testing.T) {
	const ms = time.Millisecond
	var clock time.Duration
	var slept []time.Duration
	var sent [][2]int
	now := func() time.Duration { return clock }
	sleep := func(d time.Duration) { slept = append(slept, d); clock += d }
	send := func(lo, hi int) error {
		sent = append(sent, [2]int{lo, hi})
		if lo == 2 {
			clock += 2500 * time.Microsecond // the stall
		}
		return nil
	}
	due, late, err := pacer(9, 2, ms, now, sleep, send)
	if err != nil {
		t.Fatal(err)
	}
	wantDue := []time.Duration{0, ms, 2 * ms, 3 * ms, 4 * ms}
	wantLate := []time.Duration{0, 0, 1500 * time.Microsecond, 500 * time.Microsecond, 0}
	wantSlept := []time.Duration{ms, 500 * time.Microsecond}
	wantSent := [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 9}}
	if !reflect.DeepEqual(due, wantDue) || !reflect.DeepEqual(late, wantLate) {
		t.Errorf("due %v late %v, want %v %v", due, late, wantDue, wantLate)
	}
	if !reflect.DeepEqual(slept, wantSlept) {
		t.Errorf("slept %v, want %v: a late chunk must go out at once", slept, wantSlept)
	}
	if !reflect.DeepEqual(sent, wantSent) {
		t.Errorf("sent %v, want %v", sent, wantSent)
	}

	boom := errors.New("boom")
	_, _, err = pacer(4, 2, ms, now, sleep, func(lo, hi int) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("send error not returned: %v", err)
	}
}

func TestParseLine(t *testing.T) {
	m, err := parseLine([]byte(`{"match":{"ids":[3,7,11],"binding":{"a":3,"b":7,"c":11}}}` + "\n"))
	if err != nil || m.Match == nil || matchKey(m.Match.IDs) != "3,7,11" {
		t.Errorf("match line: %+v, %v", m, err)
	}
	m, err = parseLine([]byte(`{"summary":{"events":100,"relayed":40,"matches":7,"filter_ratio":0.6,"events_per_sec":12345.6}}`))
	if err != nil || m.Summary == nil || m.Summary.Events != 100 || m.Summary.Matches != 7 {
		t.Errorf("summary line: %+v, %v", m, err)
	}
	m, err = parseLine([]byte(`{"error":"bad timestamp"}`))
	if err != nil || m.Error != "bad timestamp" {
		t.Errorf("error line: %+v, %v", m, err)
	}
	for _, bad := range []string{`not json`, `{}`, `{"match":{"ids":[]}}`} {
		if _, err := parseLine([]byte(bad)); err == nil {
			t.Errorf("parseLine(%q) accepted a malformed line", bad)
		}
	}
}

// canned feeds readReplies a server transcript, as drive's reader would
// see it, for a pass of planned events sent in chunks of two.
func canned(t *testing.T, planned int, transcript string) *conversation {
	t.Helper()
	cv := &conversation{planned: planned, chunk: 2}
	for c := 0; c*2 < planned; c++ {
		cv.sendAt = append(cv.sendAt, time.Duration(c)*time.Millisecond)
	}
	at := 10 * time.Millisecond
	if err := readReplies(strings.NewReader(transcript), cv, func() time.Duration { return at }); err != nil {
		t.Fatal(err)
	}
	if cv.summary == nil && len(cv.serverErrs) == 0 {
		cv.broken = errors.New("connection ended before the summary")
	}
	return cv
}

func TestAccountFailedOperations(t *testing.T) {
	exact := map[string]bool{"0,1,2": true, "1,2,5": true, "4,6,7": true}

	// A clean stream: every event confirmed, every match in M(s).
	cv := canned(t, 8, `{"match":{"ids":[0,1,2]}}
{"match":{"ids":[1,2,5]}}
{"summary":{"events":8,"relayed":5,"matches":2}}
`)
	ta := account(cv, exact)
	if ta.attempted != 10 || ta.failed != 0 || ta.hits != 2 || len(ta.problems) != 0 {
		t.Errorf("clean stream: %+v", ta)
	}
	// Latency runs from the send time of the chunk holding the highest ID:
	// IDs 2 and 5 are in chunks 1 and 2, sent at 1 ms and 2 ms; receipt 10 ms.
	if !reflect.DeepEqual(ta.latencyMS, []float64{9, 8}) {
		t.Errorf("latency samples %v, want [9 8]", ta.latencyMS)
	}

	// One false match, one repeated match, one event the summary lost.
	cv = canned(t, 8, `{"match":{"ids":[0,1,2]}}
{"match":{"ids":[0,1,3]}}
{"match":{"ids":[0,1,2]}}
{"summary":{"events":7,"relayed":5,"matches":3}}
`)
	ta = account(cv, exact)
	if ta.attempted != 11 || ta.failed != 3 || ta.hits != 1 || len(ta.latencyMS) != 1 || len(ta.problems) != 3 {
		t.Errorf("dirty stream: %+v", ta)
	}

	// An error line ends the stream: every event of the connection fails,
	// the matches before it still count as received.
	cv = canned(t, 8, `{"match":{"ids":[4,6,7]}}
{"error":"event \"X\" has 0 attributes, schema wants 1"}
{"match":{"ids":[0,1,2]}}
`)
	ta = account(cv, exact)
	if len(cv.matches) != 1 || ta.attempted != 9 || ta.failed != 8 || ta.hits != 1 {
		t.Errorf("error stream: %+v (matches read %d)", ta, len(cv.matches))
	}

	// An early disconnect fails every event too.
	cv = canned(t, 8, `{"match":{"ids":[4,6,7]}}
`)
	ta = account(cv, exact)
	if ta.failed != 8 || len(ta.problems) != 1 || !strings.Contains(ta.problems[0], "disconnect") {
		t.Errorf("disconnect: %+v", ta)
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	// Hand-written times: push 0..100 holds mark 10..70; a later push 100..130.
	r.spans = []span{
		{ID: 0, Parent: -1, Layer: "other", Name: "before", Start: 0, End: 5},
		{ID: 1, Parent: -1, Layer: "core", Name: "push", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "nn", Name: "mark", Start: 10, End: 70},
		{ID: 3, Parent: -1, Layer: "core", Name: "push", Start: 100, End: 130},
	}
	self := selfByName(r.spans, 1)
	if self["core.push"] != 70 || self["nn.mark"] != 60 || len(self) != 2 {
		t.Errorf("self times %v, want core.push 70, nn.mark 60", self)
	}
	// begin/end nest by call order.
	r = newRecorder()
	a := r.begin("core", "push", 7)
	b := r.begin("nn", "mark", 0)
	r.end(b)
	r.end(a)
	c := r.begin("core", "push", 8)
	r.end(c)
	if r.spans[b].Parent != a || r.spans[a].Parent != -1 || r.spans[c].Parent != -1 || r.spans[a].End < r.spans[b].End {
		t.Errorf("nesting wrong: %+v", r.spans)
	}
}

func TestMarkingWindowsMatchProcessorGeometry(t *testing.T) {
	p, err := prepare(findWorkload("filter-bound.seq"), smokeScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	ws := markingWindows(p.events[:100], 24, 12)
	// 100 events: full windows start at 0,12,...,72 (7 of them), then 84..99.
	if len(ws) != 8 || len(ws[0]) != 24 || ws[6][0].ID != 72 || len(ws[7]) != 16 || ws[7][0].ID != 84 {
		t.Errorf("got %d windows, last starts at %d with %d events", len(ws), ws[len(ws)-1][0].ID, len(ws[len(ws)-1]))
	}
}

func TestPrepareIsReproducibleAndSeedsAreDisjoint(t *testing.T) {
	s := findWorkload("cep-bound.seq")
	a, err := prepare(s, smokeScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prepare(s, smokeScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.sha != b.sha || !bytes.Equal(a.wire, b.wire) || !reflect.DeepEqual(a.exact, b.exact) {
		t.Error("the same seed produced different inputs")
	}
	c, err := prepare(s, smokeScale, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c.sha != a.sha {
		t.Error("the filter is pinned by the workload and must not change with the seed")
	}
	if bytes.Equal(a.wire, c.wire) {
		t.Error("seeds 5 and 6 serve the same events")
	}
	if got := bytes.Count(a.wire, []byte("\n")); got != len(a.events) || len(a.off) != len(a.events)+1 {
		t.Errorf("%d wire lines for %d events", got, len(a.events))
	}
	if a.events[0].ID != 0 || a.events[len(a.events)-1].ID != uint64(len(a.events)-1) {
		t.Error("served events are not numbered from 0 in arrival order")
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tables in this
// package from drifting apart: -agree judges by the bounds compiled in.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"cmd/dlacep-servebench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	specs := workloads()
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(specs))
	}
	for i, s := range specs {
		if bj.Workloads[i].Name != s.name || bj.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or the why differs)", i, bj.Workloads[i].Name, s.name)
		}
		if len(s.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", s.name, len(s.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end to end, %d/%d per layer", len(bj.EndToEnd), len(endToEnd), len(bj.PerLayer), len(perLayer))
	}
	for i, d := range endToEnd {
		m := bj.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for i, d := range perLayer {
		m := bj.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// TestSmokeEndToEnd runs the one command at smoke scale: all four workloads
// against a real dlacep-serve child, the traced pass, the result file, the
// contract's result line, and -agree over the file it wrote.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dlacep-serve")
	}
	work := t.TempDir()
	out := filepath.Join(work, "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seconds", "0", "-runs", "2", "-work", work, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 4 || res.Env.GoVersion == "" || res.Env.NumCPU == 0 || res.Env.PacedRate != pacedRate {
		t.Fatalf("result file incomplete: %+v", res.Env)
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Attempted == 0 || len(w.Problems) != 0 {
			t.Errorf("%s: attempted %d failed %d problems %v", w.Name, w.Attempted, w.Failed, w.Problems)
		}
		if len(w.ModelSHA256) != 2 || len(w.Seeds) != 2 || w.Events == 0 {
			t.Errorf("%s: environment record incomplete: %+v", w.Name, w)
		}
		for _, d := range endToEnd {
			if m := w.EndToEnd[d.name]; len(m.Values) != 2 || m.Median <= 0 {
				t.Errorf("%s %s: %+v", w.Name, d.name, m)
			}
		}
		for _, d := range perLayer {
			if _, ok := w.PerLayer[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.name)
			}
		}
		if sharded := w.Name == "filter-bound.shards2"; (w.PerLayer["shard.wall_ns_per_event"] > 0) != sharded {
			t.Errorf("%s: shard layer timed = %v", w.Name, !sharded)
		}
		if w.PerLayer["nn.mark_ns_per_event"] <= 0 || w.PerLayer["server.bytes_in_per_event"] <= 0 || w.PerLayer["tile_coverage"] <= 0 {
			t.Errorf("%s: layers not timed: %v", w.Name, w.PerLayer)
		}
	}
	spans, err := filepath.Glob(filepath.Join(work, "*.spans.jsonl"))
	if err != nil || len(spans) != 4 {
		t.Errorf("span files: %v %v", spans, err)
	}

	// The file agrees with itself.
	stdout.Reset()
	if code := run([]string{"-agree", out, out}, &stdout, &stderr); code != 0 {
		t.Errorf("-agree of a file with itself: exit %d\n%s", code, stdout.String())
	}

	// Contract mode: the last line is the result object, traced and not.
	for _, tr := range []string{"0", "1"} {
		stdout.Reset()
		args := []string{"--workload", "filter-bound.paced", "--seed", "11", "--seconds", "0", "--trace", tr, "-smoke", "-work", work}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("contract mode trace %s: exit %d\n%s\n%s", tr, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %q", lines[len(lines)-1])
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if tr == "1" {
			defs = perLayer
		}
		if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" || len(metrics) != len(defs) {
			t.Errorf("trace %s result line: %s", tr, lines[len(lines)-1])
		}
		for _, d := range defs {
			if metrics[d.name].Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or unit %q", tr, d.name, metrics[d.name].Unit)
			}
		}
	}
}

func TestAgreeVerdicts(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, thr []float64, sha string, events int) string {
		w := workloadResult{Name: "filter-bound.seq", Events: events, Seeds: []int64{1, 2, 3}, ModelSHA256: []string{sha, sha, sha},
			EndToEnd: map[string]metricSummary{}}
		for _, d := range endToEnd {
			v := []float64{10, 10, 10}
			if d.name == "throughput_eps" {
				v = thr
			}
			w.EndToEnd[d.name] = summarize(d, v)
		}
		path := filepath.Join(dir, name)
		if err := writeResult(path, &resultFile{Workloads: []workloadResult{w}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base.json", []float64{1000, 1001, 1002}, "aa", 500)
	var out bytes.Buffer

	ok, err := agree(&out, base, mk("same.json", []float64{1003, 1004, 1005}, "aa", 500))
	if err != nil || !ok || !strings.Contains(out.String(), "agree") {
		t.Errorf("close medians: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = agree(&out, base, mk("slow.json", []float64{800, 801, 802}, "aa", 500))
	if err != nil || ok || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("20%% slower: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = agree(&out, base, mk("noisy.json", []float64{700, 1010, 1300}, "aa", 500))
	if err != nil || !ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy runs must be unresolved, not unchanged: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if _, err := agree(&out, base, mk("othermodel.json", []float64{1000, 1001, 1002}, "bb", 500)); err == nil {
		t.Error("files that served different models were compared")
	}
	if _, err := agree(&out, base, mk("otherevents.json", []float64{1000, 1001, 1002}, "aa", 600)); err == nil {
		t.Error("files with different event counts were compared")
	}
}
