package nn

import "math"

// Inference fast path. Training forwards allocate per-step buffers and build
// BPTT caches; at marking time DLACEP's filters only ever need the forward
// values, and the filter must stay cheap relative to the CEP engine it
// shields (the whole premise of Section 4's filtration gains). The fast path
// therefore:
//
//   - draws every intermediate activation from a caller-owned Scratch arena,
//     so steady-state window marking allocates nothing;
//   - fuses the LSTM input projection Wx·X over the whole window into one
//     blocked kernel (gemm.go), leaving only the Wh·h recurrence sequential;
//   - writes both BiLSTM direction outputs straight into the halves of the
//     concatenated output rows, eliminating the per-step copy;
//   - never touches the layers' training caches, so a fast-path pass on a
//     clone is race-free against other clones by construction.
//
// Bit-equality contract: Infer performs, per output element, exactly the
// floating-point operations of Forward(x, false) in exactly the same order,
// so fast-path and naive outputs are bit-identical (enforced by the
// differential suite and FuzzInferEquivalence in infer_test.go).

// FastLayer is implemented by layers that provide the allocation-free
// inference path. Infer must compute exactly Forward(x, false) — bit for
// bit — without mutating the layer (training caches included), drawing any
// buffers it needs from s. Returned rows may live in s (valid until the next
// top-level Network.Infer on the same arena) or alias x (identity layers).
type FastLayer interface {
	Layer
	Infer(x [][]float64, s *Scratch) [][]float64
}

// Infer is the inference fast path through the network: one arena reset,
// then every FastLayer runs its allocation-free forward. A nil scratch — or
// a layer predating the fast path — falls back to the naive Forward, so
// Infer is always safe to call. The returned rows are owned by s and are
// overwritten by the next Infer on the same arena.
//
//dlacep:hotpath
func (n *Network) Infer(x [][]float64, s *Scratch) [][]float64 {
	if s == nil {
		//dlacep:coldpath nil-scratch callers opted out of the fast path; the naive Forward allocates by design
		return n.Forward(x, false)
	}
	s.reset()
	out := n.infer(x, s)
	s.fit()
	return out
}

// infer runs the layer chain against an already-reset arena. Nested
// networks (Residual bodies) enter here so the sub-pass shares the window's
// arena instead of resetting it mid-flight.
func (n *Network) infer(x [][]float64, s *Scratch) [][]float64 {
	for _, l := range n.Layers {
		if f, ok := l.(FastLayer); ok {
			x = f.Infer(x, s)
		} else {
			//dlacep:coldpath layers predating the fast path fall back to the allocating naive Forward
			x = l.Forward(x, false)
		}
	}
	return x
}

// Infer runs the recurrence with the fused input projection.
//
//dlacep:hotpath
func (l *LSTM) Infer(x [][]float64, s *Scratch) [][]float64 {
	hs := s.matrixUninit(len(x), l.hidden) // inferInto writes every element
	l.inferInto(x, s, hs)
	return hs
}

// inferInto runs the inference recurrence writing h_t into hs[t]. The rows
// of hs must have length H; BiLSTM passes views into the halves of its
// concatenated output so the merge costs nothing.
func (l *LSTM) inferInto(x [][]float64, s *Scratch, hs [][]float64) {
	mustDims("lstm", x, l.in)
	T, H := len(x), l.hidden
	if T == 0 {
		return
	}
	// Fused input projection: z[t] = b + Wx·x_t for the whole window in one
	// blocked pass. The sequential part below only adds Wh·h_{t-1}.
	z := s.matrixUninit(T, 4*H) // seqMulBias overwrites every element
	seqMulBias(z, l.Wx.Data, 4*H, l.in, l.B.Data, x)
	l.recurInto(z, s, hs)
}

// recurInto runs the sequential half of the recurrence: z already holds
// b + Wx·x_t per step, and each pass adds Wh·h_{t-1}, applies the gates, and
// writes h_t into hs[t]. Split from inferInto so the K-window batch path
// (inferbatch.go) can reuse it on slices of a fused multi-window projection.
func (l *LSTM) recurInto(z [][]float64, s *Scratch, hs [][]float64) {
	T, H := len(z), l.hidden
	hPrev := s.floats(H)
	cPrev := s.floats(H)
	cCur := s.floats(H)
	for step := 0; step < T; step++ {
		t := step
		if l.reverse {
			t = T - 1 - step
		}
		// Add Wh·h_{t-1} with four gate rows per pass over hPrev: the rows
		// share every h_j load and run four independent dependency chains,
		// while each zt[r] still accumulates its own products in ascending j
		// — the same order as the reference loop, so bit-equality holds.
		// Four rows with the j-unroll below measured faster here than wider
		// single-add row blocks (unlike the input projection): the extra
		// weight-row streams cost more than the shorter add chains save.
		// 4H is always a multiple of four, but a scalar tail guards anyway.
		// The re-slicing below ([i:][:H], hPrev[:H], …) only hands the
		// compiler provable lengths so the inner loops run bounds-check-free;
		// it touches no values.
		zt := z[t]
		whData := l.Wh.Data
		hp := hPrev[0:H:H]
		r := 0
		for ; r+3 < 4*H; r += 4 {
			w0 := whData[r*H:][:H]
			w1 := whData[(r+1)*H:][:H]
			w2 := whData[(r+2)*H:][:H]
			w3 := whData[(r+3)*H:][:H]
			a0, a1, a2, a3 := zt[r], zt[r+1], zt[r+2], zt[r+3]
			// j unrolled by two: each accumulator still sums strictly in
			// ascending j, so per-element order (and the result) is unchanged.
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
		for ; r < 4*H; r++ {
			acc := zt[r]
			wh := whData[r*H:][:H]
			for j, hj := range hp {
				acc += wh[j] * hj
			}
			zt[r] = acc
		}
		ht := hs[t][:H]
		zi, zf := zt[:H], zt[H:][:H]
		zg, zo := zt[2*H:][:H], zt[3*H:][:H]
		cp, cc := cPrev[:H], cCur[:H]
		// sigmoid is hand-inlined here: the compiler declines to inline it
		// (its body contains a call), and in Go's ABI every floating-point
		// register is caller-saved, so each of the three calls per element
		// would spill the loop's live state. The expressions are verbatim
		// copies of sigmoid in param.go — same branches, same operations —
		// so the results stay bit-identical to the reference path.
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
		hPrev = ht
		cPrev, cCur = cCur, cPrev
	}
}

// Infer runs both directions directly into the halves of the concatenated
// output rows, skipping Forward's per-step copy into a third buffer.
//
//dlacep:hotpath
func (b *BiLSTM) Infer(x [][]float64, s *Scratch) [][]float64 {
	T, H := len(x), b.Fwd.hidden
	out := s.matrixUninit(T, 2*H) // both halves fully written below
	hf := s.rowHeaders(T)
	hb := s.rowHeaders(T)
	for t := range out {
		hf[t] = out[t][:H:H]
		hb[t] = out[t][H:]
	}
	b.Fwd.inferInto(x, s, hf)
	b.Bwd.inferInto(x, s, hb)
	return out
}

// Infer computes the per-step affine map through the blocked kernel.
//
//dlacep:hotpath
func (l *Linear) Infer(x [][]float64, s *Scratch) [][]float64 {
	mustDims("linear", x, l.in)
	y := s.matrixUninit(len(x), l.out) // seqMulBias overwrites every element
	seqMulBias(y, l.W.Data, l.out, l.in, l.B.Data, x)
	return y
}

// Infer averages the sequence into an arena-backed 1×D row. An empty window
// yields the zero vector (same guard as Forward).
//
//dlacep:hotpath
func (m *MeanPool) Infer(x [][]float64, s *Scratch) [][]float64 {
	mustDims("meanpool", x, m.dim)
	out := s.matrix(1, m.dim)
	if len(x) == 0 {
		return out
	}
	row := out[0]
	for _, xt := range x {
		for i, v := range xt {
			row[i] += v
		}
	}
	inv := 1.0 / float64(len(x))
	for i := range row {
		row[i] *= inv
	}
	return out
}

// Infer is the identity: dropout is only active during training. The output
// aliases x, which the layer aliasing contract (layer.go) makes safe.
//
//dlacep:hotpath
func (d *Dropout) Infer(x [][]float64, s *Scratch) [][]float64 { return x }

// Infer computes the padded convolution into arena rows.
//
//dlacep:hotpath
func (c *Conv1D) Infer(x [][]float64, s *Scratch) [][]float64 {
	mustDims("conv1d", x, c.in)
	T := len(x)
	half := c.kernel / 2
	y := s.matrixUninit(T, c.out) // every row starts from a full bias copy
	for t := 0; t < T; t++ {
		row := y[t]
		copy(row, c.B.Data)
		for k := 0; k < c.kernel; k++ {
			src := t + (k-half)*c.dilation
			if src < 0 || src >= T {
				continue
			}
			xs := x[src]
			for o := 0; o < c.out; o++ {
				w := c.W.Data[o*c.in*c.kernel+k*c.in : o*c.in*c.kernel+(k+1)*c.in]
				acc := 0.0
				for i, xi := range xs {
					acc += w[i] * xi
				}
				row[o] += acc
			}
		}
	}
	return y
}

// Infer rectifies into arena rows without building the training mask.
//
//dlacep:hotpath
func (r *ReLU) Infer(x [][]float64, s *Scratch) [][]float64 {
	mustDims("relu", x, r.dim)
	y := s.matrix(len(x), r.dim)
	for t, xt := range x {
		yt := y[t]
		for i, v := range xt {
			if v > 0 {
				yt[i] = v
			}
		}
	}
	return y
}

// Infer computes body(x) + skip(x) with the body sharing the window arena.
//
//dlacep:hotpath
func (r *Residual) Infer(x [][]float64, s *Scratch) [][]float64 {
	y := r.Body.infer(x, s)
	var skip [][]float64
	if r.Proj != nil {
		skip = r.Proj.Infer(x, s)
	} else {
		skip = x
	}
	out := s.matrixUninit(len(y), r.Body.OutDim()) // fully written below
	for t := range y {
		ot, yt, st := out[t], y[t], skip[t]
		for i := range ot {
			ot[i] = yt[i] + st[i]
		}
	}
	return out
}
