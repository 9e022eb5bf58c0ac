package nn

import "math"

// K-window batched inference. The sharded serving pipeline marks K marking
// windows per shard wake-up, and on a single core the win comes from
// amortizing memory traffic, not parallelism:
//
//   - the input projection Wx·X has no sequential dependency across windows
//     either, so the batch path runs one fused seqMulBias over the K·T
//     concatenated rows — each weight-row tile is streamed from memory once
//     per K windows instead of once per window;
//   - the recurrence is sequential *within* a window but independent
//     *across* windows, so the batch path runs it step-major: at step t it
//     applies each Wh row block to all K windows' h_{t-1} while the block is
//     hot in L1. Wh (4H×H floats) is the dominant stream of the per-step
//     loop; step-major order divides that stream by K.
//
// Bit-equality contract: identical to infer.go — for every output element
// the batch path performs exactly the floating-point operations of
// Forward(x, false) in exactly the same order. Batching only reorders which
// (window, element) is computed when; no element's summation order changes.
// Enforced by FuzzInferBatchEquivalence in inferbatch_test.go.

// BatchFastLayer is implemented by layers whose inference fast path can
// process K windows per call. InferBatch must compute, for each xs[i],
// exactly Forward(xs[i], false) bit for bit, without mutating the layer.
// Returned matrices may live in s (valid until the next top-level
// Network.Infer/InferBatch on the same arena) or alias xs entries.
type BatchFastLayer interface {
	FastLayer
	InferBatch(xs [][][]float64, s *Scratch) [][][]float64
}

// InferBatch is the K-window inference fast path: one arena reset, then every
// layer processes the whole batch — in one fused pass where the layer
// implements BatchFastLayer, window-by-window otherwise. A nil scratch falls
// back to the naive Forward per window, so InferBatch is always safe to call.
// Returned matrices are owned by s and are overwritten by the next
// Infer/InferBatch on the same arena.
//
//dlacep:hotpath
func (n *Network) InferBatch(xs [][][]float64, s *Scratch) [][][]float64 {
	if len(xs) == 0 {
		return nil
	}
	if s == nil {
		//dlacep:coldpath nil-scratch callers opted out of the fast path; the fallback allocates by design
		out := make([][][]float64, len(xs))
		for w, x := range xs {
			//dlacep:coldpath nil-scratch fallback marks window-by-window through the naive Forward
			out[w] = n.Forward(x, false)
		}
		return out
	}
	s.reset()
	cur := s.matHeaders(len(xs))
	copy(cur, xs)
	for _, l := range n.Layers {
		if bf, ok := l.(BatchFastLayer); ok {
			cur = bf.InferBatch(cur, s)
			continue
		}
		next := s.matHeaders(len(cur))
		if f, ok := l.(FastLayer); ok {
			for w, x := range cur {
				next[w] = f.Infer(x, s)
			}
		} else {
			for w, x := range cur {
				//dlacep:coldpath layers predating the fast path fall back to the allocating naive Forward
				next[w] = l.Forward(x, false)
			}
		}
		cur = next
	}
	s.fit()
	return cur
}

// InferBatch runs the batched recurrence into per-window arena matrices.
//
//dlacep:hotpath
func (l *LSTM) InferBatch(xs [][][]float64, s *Scratch) [][][]float64 {
	hss := s.matHeaders(len(xs))
	for w, x := range xs {
		hss[w] = s.matrixUninit(len(x), l.hidden) // fully written below
	}
	l.inferBatchInto(xs, s, hss)
	return hss
}

// InferBatch runs both directions of every window into the halves of its
// concatenated output rows, then hands each direction the whole batch.
//
//dlacep:hotpath
func (b *BiLSTM) InferBatch(xs [][][]float64, s *Scratch) [][][]float64 {
	H := b.Fwd.hidden
	outs := s.matHeaders(len(xs))
	hfs := s.matHeaders(len(xs))
	hbs := s.matHeaders(len(xs))
	for w, x := range xs {
		T := len(x)
		out := s.matrixUninit(T, 2*H) // both halves fully written below
		hf := s.rowHeaders(T)
		hb := s.rowHeaders(T)
		for t := range out {
			hf[t] = out[t][:H:H]
			hb[t] = out[t][H:]
		}
		outs[w], hfs[w], hbs[w] = out, hf, hb
	}
	b.Fwd.inferBatchInto(xs, s, hfs)
	b.Bwd.inferBatchInto(xs, s, hbs)
	return outs
}

// InferBatch computes the affine map for all windows in one fused kernel
// call; the per-window outputs are views into one contiguous result matrix.
//
//dlacep:hotpath
func (l *Linear) InferBatch(xs [][][]float64, s *Scratch) [][][]float64 {
	total := 0
	for _, x := range xs {
		mustDims("linear", x, l.in)
		total += len(x)
	}
	rows := s.rowHeaders(total)
	off := 0
	for _, x := range xs {
		off += copy(rows[off:], x)
	}
	y := s.matrixUninit(total, l.out) // seqMulBias overwrites every element
	seqMulBias(y, l.W.Data, l.out, l.in, l.B.Data, rows)
	outs := s.matHeaders(len(xs))
	off = 0
	for w, x := range xs {
		outs[w] = y[off : off+len(x) : off+len(x)]
		off += len(x)
	}
	return outs
}

// InferBatch is the identity: dropout is only active during training.
//
//dlacep:hotpath
func (d *Dropout) InferBatch(xs [][][]float64, s *Scratch) [][][]float64 { return xs }

// inferBatchInto runs the K-window recurrence writing window w's h_t into
// hss[w][t]. The input projection is fused across all windows regardless of
// their lengths; the step-major recurrence needs a shared step counter, so a
// ragged batch falls back to per-window recurrences over its slice of the
// fused projection (still saving the projection's weight re-streaming).
func (l *LSTM) inferBatchInto(xs [][][]float64, s *Scratch, hss [][][]float64) {
	K := len(xs)
	if K == 0 {
		return
	}
	H := l.hidden
	total := 0
	T := len(xs[0])
	uniform := true
	for _, x := range xs {
		mustDims("lstm", x, l.in)
		total += len(x)
		if len(x) != T {
			uniform = false
		}
	}
	if total == 0 {
		return
	}
	// Fused input projection over the concatenated batch: window w's steps
	// occupy rows [off_w, off_w+T_w) of z, in window order.
	rows := s.rowHeaders(total)
	off := 0
	for _, x := range xs {
		off += copy(rows[off:], x)
	}
	z := s.matrixUninit(total, 4*H) // seqMulBias overwrites every element
	seqMulBias(z, l.Wx.Data, 4*H, l.in, l.B.Data, rows)
	if !uniform || T == 0 || K == 1 {
		off = 0
		for w, x := range xs {
			l.recurInto(z[off:off+len(x)], s, hss[w])
			off += len(x)
		}
		return
	}
	// Step-major batched recurrence. At each step, phase 1 adds Wh·h_{t-1}
	// for every window with the weight-row block loaded once, then phase 2
	// applies the gates window-by-window. Per (window, element) the operations
	// and their order are verbatim those of recurInto (infer.go), so the
	// result is bit-identical; only the window interleaving differs.
	whData := l.Wh.Data
	hPrev := s.rowHeaders(K)
	cPrev := s.rowHeaders(K)
	cCur := s.rowHeaders(K)
	for w := 0; w < K; w++ {
		hPrev[w] = s.floats(H)
		cPrev[w] = s.floats(H)
		cCur[w] = s.floats(H)
	}
	for step := 0; step < T; step++ {
		t := step
		if l.reverse {
			t = T - 1 - step
		}
		r := 0
		for ; r+3 < 4*H; r += 4 {
			w0 := whData[r*H:][:H]
			w1 := whData[(r+1)*H:][:H]
			w2 := whData[(r+2)*H:][:H]
			w3 := whData[(r+3)*H:][:H]
			for w := 0; w < K; w++ {
				zt := z[w*T+t]
				hp := hPrev[w][0:H:H]
				a0, a1, a2, a3 := zt[r], zt[r+1], zt[r+2], zt[r+3]
				j := 0
				for ; j < H-1; j += 2 {
					hj, hj1 := hp[j], hp[j+1]
					a0 += w0[j] * hj
					a0 += w0[j+1] * hj1
					a1 += w1[j] * hj
					a1 += w1[j+1] * hj1
					a2 += w2[j] * hj
					a2 += w2[j+1] * hj1
					a3 += w3[j] * hj
					a3 += w3[j+1] * hj1
				}
				for ; j < H; j++ {
					hj := hp[j]
					a0 += w0[j] * hj
					a1 += w1[j] * hj
					a2 += w2[j] * hj
					a3 += w3[j] * hj
				}
				zt[r] = a0
				zt[r+1] = a1
				zt[r+2] = a2
				zt[r+3] = a3
			}
		}
		for ; r < 4*H; r++ {
			wh := whData[r*H:][:H]
			for w := 0; w < K; w++ {
				zt := z[w*T+t]
				acc := zt[r]
				for j, hj := range hPrev[w][0:H:H] {
					acc += wh[j] * hj
				}
				zt[r] = acc
			}
		}
		for w := 0; w < K; w++ {
			zt := z[w*T+t]
			ht := hss[w][t][:H]
			zi, zf := zt[:H], zt[H:][:H]
			zg, zo := zt[2*H:][:H], zt[3*H:][:H]
			cp, cc := cPrev[w][:H], cCur[w][:H]
			// Gate expressions are verbatim copies of recurInto's (which in
			// turn mirror sigmoid in param.go) — same branches, same
			// operations, bit-identical results.
			for j, zij := range zi {
				var i, f, o float64
				if zij >= 0 {
					e := math.Exp(-zij)
					i = 1 / (1 + e)
				} else {
					e := math.Exp(zij)
					i = e / (1 + e)
				}
				if zfj := zf[j]; zfj >= 0 {
					e := math.Exp(-zfj)
					f = 1 / (1 + e)
				} else {
					e := math.Exp(zfj)
					f = e / (1 + e)
				}
				g := math.Tanh(zg[j])
				if zoj := zo[j]; zoj >= 0 {
					e := math.Exp(-zoj)
					o = 1 / (1 + e)
				} else {
					e := math.Exp(zoj)
					o = e / (1 + e)
				}
				cc[j] = f*cp[j] + i*g
				ht[j] = o * math.Tanh(cc[j])
			}
			hPrev[w] = ht
			cPrev[w], cCur[w] = cCur[w], cPrev[w]
		}
	}
}
