package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// inferTestNets builds every layer combination the pipeline (and its
// ablations) can assemble, so the differential suite proves bit-equality for
// the exact networks the filters run.
func inferTestNets(rng *rand.Rand) map[string]*Network {
	event := NewStackedBiLSTM(4, 6, 2, rng)
	event.Layers = append(event.Layers, NewLinear(event.OutDim(), 2, rng))

	window := NewStackedBiLSTM(4, 5, 1, rng)
	window.Layers = append(window.Layers,
		NewMeanPool(window.OutDim()), NewLinear(window.OutDim(), 1, rng))

	drop := NewStackedBiLSTM(4, 3, 2, rng)
	layers := []Layer{drop.Layers[0], NewDropout(6, 0.5, rng.Float64), drop.Layers[1],
		NewDropout(6, 0.5, rng.Float64), NewLinear(6, 2, rng)}
	drop.Layers = layers

	tcn := NewTCN(4, 6, 2, 3, rng)
	tcn.Layers = append(tcn.Layers, NewLinear(tcn.OutDim(), 2, rng))

	single := &Network{Layers: []Layer{NewLSTM(4, 5, false, rng)}}
	reversed := &Network{Layers: []Layer{NewLSTM(4, 5, true, rng)}}

	return map[string]*Network{
		"event-shape":  event,
		"window-shape": window,
		"with-dropout": drop,
		"tcn":          tcn,
		"lstm-fwd":     single,
		"lstm-rev":     reversed,
	}
}

// requireBitEqual fails unless got and want agree in shape and every element
// is bit-identical (math.Float64bits, so -0/+0 and NaN payloads count too).
func requireBitEqual(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for ti := range want {
		if len(got[ti]) != len(want[ti]) {
			t.Fatalf("%s: row %d has %d cols, want %d", name, ti, len(got[ti]), len(want[ti]))
		}
		for i := range want[ti] {
			if math.Float64bits(got[ti][i]) != math.Float64bits(want[ti][i]) {
				t.Fatalf("%s: [%d][%d] = %x, want %x (fast path not bit-identical)",
					name, ti, i, math.Float64bits(got[ti][i]), math.Float64bits(want[ti][i]))
			}
		}
	}
}

// TestInferMatchesForwardBitExact is the differential-equivalence suite: the
// fast path must reproduce the naive forward bit for bit over every
// architecture and window length, including the degenerate T=0 and T=1.
func TestInferMatchesForwardBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, net := range inferTestNets(rng) {
		s := NewScratch()
		for _, T := range []int{0, 1, 2, 3, 5, 17} {
			x := randSeq(rng, T, net.InDim())
			want := net.Forward(x, false)
			got := net.Infer(x, s) // one scratch reused across all shapes
			requireBitEqual(t, name, got, want)
		}
	}
}

// TestInferScratchReuse drives one arena through shrinking and growing
// windows and checks results stay exact — the reuse path (reset + regrow) is
// where a stale-buffer bug would show up.
func TestInferScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewStackedBiLSTM(3, 4, 2, rng)
	net.Layers = append(net.Layers, NewMeanPool(net.OutDim()), NewLinear(net.OutDim(), 1, rng))
	s := NewScratch()
	for _, T := range []int{9, 2, 31, 1, 31, 0, 9} {
		x := randSeq(rng, T, 3)
		requireBitEqual(t, "reuse", net.Infer(x, s), net.Forward(x, false))
	}
}

// TestInferNilScratchFallsBack checks the nil-arena escape hatch routes
// through the naive forward.
func TestInferNilScratchFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := NewStackedBiLSTM(3, 4, 1, rng)
	x := randSeq(rng, 6, 3)
	requireBitEqual(t, "nil-scratch", net.Infer(x, nil), net.Forward(x, false))
}

// FuzzInferEquivalence derives a random architecture, weights, and window
// from the fuzz input and requires bit-exact naive/fast agreement.
func FuzzInferEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(1), uint8(0))
	f.Add(int64(7), uint8(0), uint8(1), uint8(2), uint8(1)) // T=0
	f.Add(int64(9), uint8(1), uint8(5), uint8(3), uint8(2)) // T=1
	f.Add(int64(3), uint8(17), uint8(2), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, tLen, hidden, layers, arch uint8) {
		T := int(tLen % 24)
		H := int(hidden%7) + 1
		L := int(layers%3) + 1
		rng := rand.New(rand.NewSource(seed))
		in := 3
		net := NewStackedBiLSTM(in, H, L, rng)
		switch arch % 3 {
		case 1: // event-network shape
			net.Layers = append(net.Layers, NewLinear(net.OutDim(), 2, rng))
		case 2: // window-network shape
			net.Layers = append(net.Layers,
				NewMeanPool(net.OutDim()), NewLinear(net.OutDim(), 1, rng))
		}
		x := randSeq(rng, T, in)
		want := net.Forward(x, false)
		got := net.Infer(x, NewScratch())
		requireBitEqual(t, "fuzz", got, want)
	})
}

// TestNetworkInferZeroAllocs is the steady-state allocation gate the CI
// bench-smoke step relies on: after one warm-up window sizes the arena,
// Network.Infer must allocate nothing. AllocsPerRun's own first call is the
// one warm-up.
func TestNetworkInferZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	nets := map[string]*Network{}
	event := NewStackedBiLSTM(5, 8, 3, rng)
	event.Layers = append(event.Layers, NewLinear(event.OutDim(), 2, rng))
	nets["event-shape"] = event
	window := NewStackedBiLSTM(5, 8, 3, rng)
	window.Layers = append(window.Layers,
		NewMeanPool(window.OutDim()), NewLinear(window.OutDim(), 1, rng))
	nets["window-shape"] = window

	for name, net := range nets {
		x := randSeq(rng, 20, 5)
		s := NewScratch()
		if allocs := testing.AllocsPerRun(50, func() { net.Infer(x, s) }); allocs != 0 {
			t.Errorf("%s: Network.Infer allocates %.1f times per window in steady state, want 0", name, allocs)
		}
	}
}

// arenaBlocks identifies a Scratch's three backing blocks.
type arenaBlocks struct {
	flat *float64
	rows *[]float64
	mats *[][]float64
}

func blocksOf(s *Scratch) arenaBlocks {
	return arenaBlocks{unsafe.SliceData(s.flat), unsafe.SliceData(s.rows), unsafe.SliceData(s.mats)}
}

// TestScratchSizedByFirstWindow pins the arena's sizing rule on the shapes
// of the Infer benchmarks: the first window, however often it outgrows the
// arena midway, leaves blocks big enough for every later window of its
// shape. After exactly one warm-up window, many further windows with fresh
// inputs allocate nothing and never replace a block. AllocsPerRun floors
// its mean, so one regrowth in 40 windows reads 0; the block check is what
// catches it.
func TestScratchSizedByFirstWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	lstm := &Network{Layers: []Layer{NewLSTM(32, 12, false, rng)}}
	stacked := NewStackedBiLSTM(16, 12, 3, rng)
	stacked.Layers = append(stacked.Layers, NewLinear(stacked.OutDim(), 2, rng))
	const K, T = 4, 32
	inputs := func(dim int) [][][]float64 {
		xs := make([][][]float64, 8)
		for i := range xs {
			xs[i] = randSeq(rng, T, dim)
		}
		return xs
	}
	lstmIn, stackedIn := inputs(32), inputs(16)
	cases := []struct {
		name   string
		window func(s *Scratch, i int)
	}{
		{"LSTMInfer", func(s *Scratch, i int) { lstm.Infer(lstmIn[i%len(lstmIn)], s) }},
		{"StackedBiLSTMInfer", func(s *Scratch, i int) { stacked.Infer(stackedIn[i%len(stackedIn)], s) }},
		{"InferBatch", func(s *Scratch, i int) {
			lo := i % (len(stackedIn) - K + 1)
			stacked.InferBatch(stackedIn[lo:lo+K], s)
		}},
	}
	for _, c := range cases {
		s := NewScratch()
		calls := 0
		var sized arenaBlocks
		// AllocsPerRun's first call is the one warm-up window.
		allocs := testing.AllocsPerRun(40, func() {
			c.window(s, calls)
			if calls == 0 {
				sized = blocksOf(s)
			} else if b := blocksOf(s); b != sized {
				t.Errorf("%s: window %d replaced an arena block", c.name, calls)
				sized = b
			}
			calls++
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per window after one warm-up window, want 0", c.name, allocs)
		}
	}
}

// TestScratchArenaConcurrentInfer runs clones concurrently, each with its
// own arena, against sequential references. Under -race (CI runs the whole
// module with it) this proves per-goroutine arenas share nothing.
func TestScratchArenaConcurrentInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	net := NewStackedBiLSTM(4, 6, 2, rng)
	net.Layers = append(net.Layers, NewLinear(net.OutDim(), 2, rng))
	const workers = 8
	inputs := make([][][]float64, workers)
	want := make([][][]float64, workers)
	for i := range inputs {
		inputs[i] = randSeq(rng, 6+i, 4)
		want[i] = net.Forward(inputs[i], false)
	}
	got := make([][][]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		f := net
		if i > 0 {
			f = net.Clone()
		}
		wg.Add(1)
		go func(i int, f *Network) {
			defer wg.Done()
			s := NewScratch() // per-goroutine arena, as in core's worker loops
			for rep := 0; rep < 20; rep++ {
				got[i] = f.Infer(inputs[i], s)
			}
			// copy out of the arena before the goroutine's scratch dies
			out := make([][]float64, len(got[i]))
			for t2 := range out {
				out[t2] = append([]float64(nil), got[i][t2]...)
			}
			got[i] = out
		}(i, f)
	}
	wg.Wait()
	for i := range got {
		requireBitEqual(t, "concurrent", got[i], want[i])
	}
}

// TestMeanPoolEmptyWindow is the regression test for the T=0 NaN bug: an
// empty window must pool to the zero vector, not 0·(1/0) = NaN, and
// Backward must mirror the guard.
func TestMeanPoolEmptyWindow(t *testing.T) {
	m := NewMeanPool(3)
	out := m.Forward(nil, false)
	if len(out) != 1 {
		t.Fatalf("empty-window pool returned %d rows, want 1", len(out))
	}
	if len(out[0]) != 3 {
		t.Fatalf("empty-window pool row has %d cols, want 3", len(out[0]))
	}
	for i, v := range out[0] {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("empty-window pool[0][%d] = %v, want 0", i, v)
		}
	}
	// the fast path takes the same guard
	s := NewScratch()
	requireBitEqual(t, "meanpool-T0", m.Infer(nil, s), out)
	// Backward after a T=0 forward: no timesteps, no gradient, no Inf
	m.Forward(nil, true)
	if dX := m.Backward([][]float64{{1, 2, 3}}); len(dX) != 0 {
		t.Errorf("empty-window pool Backward returned %d rows, want 0", len(dX))
	}
}

// TestLayerAliasingContract enforces the read-only half of the aliasing
// contract (layer.go): no layer writes its input x in Forward/Infer nor the
// upstream gradient dY in Backward. The contract is what makes Dropout's
// off-path alias and BiLSTM.Backward's row[:H]/row[H:] views safe.
func TestLayerAliasingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	layers := map[string]Layer{
		"linear":   NewLinear(4, 3, rng),
		"lstm-fwd": NewLSTM(4, 3, false, rng),
		"lstm-rev": NewLSTM(4, 3, true, rng),
		"bilstm":   NewBiLSTM(4, 3, rng),
		"meanpool": NewMeanPool(4),
		"dropout":  NewDropout(4, 0.5, rng.Float64),
		"conv1d":   NewConv1D(4, 3, 3, 1, rng),
		"relu":     NewReLU(4),
		"residual": NewResidual(&Network{Layers: []Layer{NewLinear(4, 3, rng)}}, rng),
	}
	snapshot := func(x [][]float64) [][]float64 {
		c := make([][]float64, len(x))
		for i := range x {
			c[i] = append([]float64(nil), x[i]...)
		}
		return c
	}
	for name, l := range layers {
		const T = 5
		x := randSeq(rng, T, l.InDim())
		xCopy := snapshot(x)
		y := l.Forward(x, true)
		requireBitEqual(t, name+": Forward(train) mutated its input", x, xCopy)

		outT := len(y)
		dY := randSeq(rng, outT, l.OutDim())
		dYCopy := snapshot(dY)
		l.Backward(dY)
		requireBitEqual(t, name+": Backward mutated dY", dY, dYCopy)

		l.Forward(x, false)
		requireBitEqual(t, name+": Forward(eval) mutated its input", x, xCopy)

		if f, ok := l.(FastLayer); ok {
			f.Infer(x, NewScratch())
			requireBitEqual(t, name+": Infer mutated its input", x, xCopy)
		} else {
			t.Errorf("%s: does not implement FastLayer", name)
		}
	}
}
