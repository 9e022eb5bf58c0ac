package nn

import (
	"math/rand"
	"testing"
)

// requireBatchBitEqual checks every window of a batch result against its
// per-window reference.
func requireBatchBitEqual(t *testing.T, name string, got, want [][][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", name, len(got), len(want))
	}
	for w := range want {
		requireBitEqual(t, name, got[w], want[w])
	}
}

// TestInferBatchMatchesForwardBitExact is the batch differential suite: for
// every architecture the pipeline can assemble and every batch shape —
// uniform, ragged, K=1, windows of length 0 and 1 — InferBatch must
// reproduce the naive per-window forward bit for bit.
func TestInferBatchMatchesForwardBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	batches := map[string][]int{
		"k1":          {7},
		"k4-uniform":  {9, 9, 9, 9},
		"k8-uniform":  {5, 5, 5, 5, 5, 5, 5, 5},
		"k4-ragged":   {3, 9, 1, 6},
		"with-empty":  {4, 0, 4},
		"all-empty":   {0, 0},
		"k2-tiny":     {1, 1},
		"k3-one-long": {17, 2, 2},
	}
	for name, net := range inferTestNets(rng) {
		s := NewScratch()
		for bname, lens := range batches {
			xs := make([][][]float64, len(lens))
			want := make([][][]float64, len(lens))
			for w, T := range lens {
				xs[w] = randSeq(rng, T, net.InDim())
				want[w] = net.Forward(xs[w], false)
			}
			got := net.InferBatch(xs, s) // one scratch reused across all batches
			requireBatchBitEqual(t, name+"/"+bname, got, want)
		}
	}
}

// TestInferBatchMatchesInfer pins the batch path to the single-window fast
// path (itself pinned to Forward), so a regression in either shows up as a
// disagreement between the two fast paths too.
func TestInferBatchMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	net := NewStackedBiLSTM(4, 6, 2, rng)
	net.Layers = append(net.Layers, NewLinear(net.OutDim(), 2, rng))
	xs := make([][][]float64, 4)
	want := make([][][]float64, 4)
	s1 := NewScratch()
	for w := range xs {
		xs[w] = randSeq(rng, 11, 4)
		out := net.Infer(xs[w], s1)
		cp := make([][]float64, len(out))
		for ti := range out {
			cp[ti] = append([]float64(nil), out[ti]...)
		}
		want[w] = cp
	}
	got := net.InferBatch(xs, NewScratch())
	requireBatchBitEqual(t, "batch-vs-infer", got, want)
}

// TestInferBatchNilScratchFallsBack checks the nil-arena escape hatch.
func TestInferBatchNilScratchFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	net := NewStackedBiLSTM(3, 4, 1, rng)
	xs := [][][]float64{randSeq(rng, 6, 3), randSeq(rng, 4, 3)}
	want := [][][]float64{net.Forward(xs[0], false), net.Forward(xs[1], false)}
	requireBatchBitEqual(t, "nil-scratch", net.InferBatch(xs, nil), want)
}

// FuzzInferBatchEquivalence derives a random architecture, weights, batch
// size, and (possibly ragged) window lengths from the fuzz input and
// requires bit-exact per-window naive/batch agreement.
func FuzzInferBatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(0), uint8(1), uint8(2), uint8(3), uint8(1)) // T=0 windows
	f.Add(int64(9), uint8(1), uint8(5), uint8(3), uint8(7), uint8(2)) // K=8
	f.Add(int64(3), uint8(17), uint8(2), uint8(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, tLen, hidden, layers, batch, ragged uint8) {
		T := int(tLen % 24)
		H := int(hidden%7) + 1
		L := int(layers%3) + 1
		K := int(batch%8) + 1
		rng := rand.New(rand.NewSource(seed))
		in := 3
		net := NewStackedBiLSTM(in, H, L, rng)
		net.Layers = append(net.Layers, NewLinear(net.OutDim(), 2, rng))
		xs := make([][][]float64, K)
		want := make([][][]float64, K)
		for w := range xs {
			Tw := T
			if ragged%2 == 1 {
				Tw = (T + w) % 24
			}
			xs[w] = randSeq(rng, Tw, in)
			want[w] = net.Forward(xs[w], false)
		}
		got := net.InferBatch(xs, NewScratch())
		requireBatchBitEqual(t, "fuzz", got, want)
	})
}

// TestNetworkInferBatchZeroAllocs: after one warm-up batch (AllocsPerRun's
// own first call) sizes the arena, InferBatch must allocate nothing — the
// shard steady-state loop depends on it (CI gates BenchmarkShardLoop/fast
// with -fail-on-allocs).
func TestNetworkInferBatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	net := NewStackedBiLSTM(5, 8, 3, rng)
	net.Layers = append(net.Layers, NewLinear(net.OutDim(), 2, rng))
	xs := make([][][]float64, 4)
	for w := range xs {
		xs[w] = randSeq(rng, 20, 5)
	}
	s := NewScratch()
	if allocs := testing.AllocsPerRun(50, func() { net.InferBatch(xs, s) }); allocs != 0 {
		t.Errorf("Network.InferBatch allocates %.1f times per batch in steady state, want 0", allocs)
	}
}

// BenchmarkInferBatch measures what K-window batching buys over K sequential
// fast-path calls at the paper-default filter body (3×BiLSTM-75): the
// recurrence streams Wh once per step for all K windows instead of once per
// (step, window). Both variants are allocation-free; this isolates the
// memory-traffic effect the sharded pipeline's marking loop exploits.
func BenchmarkInferBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := NewStackedBiLSTM(16, 75, 3, rng)
	net.Layers = append(net.Layers, NewLinear(net.OutDim(), 2, rng))
	const K, T = 4, 32
	xs := make([][][]float64, K)
	for w := range xs {
		xs[w] = randSeq(rng, T, 16)
	}
	b.Run("naive", func(b *testing.B) {
		s := NewScratch()
		net.Infer(xs[0], s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				net.Infer(x, s)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		s := NewScratch()
		net.InferBatch(xs, s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.InferBatch(xs, s)
		}
	})
}
