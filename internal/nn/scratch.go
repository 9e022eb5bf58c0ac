package nn

// Scratch is a per-goroutine bump arena backing the inference fast path
// (Network.Infer). All intermediate activations of one forward pass are
// carved out of two flat backing slices — one for float data, one for row
// headers — so that after a warm-up window sized at the steady-state
// high-water mark, marking a window allocates nothing.
//
// Ownership rules:
//
//   - one Scratch per goroutine: a Scratch is not safe for concurrent use,
//     and neither is sharing one between two networks that run concurrently
//     (core filter clones each own a fresh arena for exactly this reason);
//   - slices returned by Network.Infer (and by the per-layer Infer methods)
//     point into the arena and are valid only until the next Infer call on
//     the same Scratch — copy anything that must outlive the window;
//   - a Scratch never shrinks; it grows to the largest window seen and then
//     reuses that capacity forever.
type Scratch struct {
	flat []float64
	fOff int
	rows [][]float64
	rOff int
	mats [][][]float64
	mOff int
	// fNeed, rNeed and mNeed count the window's total demand of each kind.
	// Mid-window growth restarts at offset 0 of a block smaller than that
	// total, so fit sizes the blocks to it once the window is done.
	fNeed, rNeed, mNeed int
}

// NewScratch returns an empty arena; the first inference pass sizes it.
func NewScratch() *Scratch { return &Scratch{} }

// reset rewinds the arena to empty. Called by Network.Infer at the top of
// every window; all previously returned slices become reusable.
func (s *Scratch) reset() {
	s.fOff, s.fNeed = 0, 0
	s.rOff, s.rNeed = 0, 0
	s.mOff, s.mNeed = 0, 0
}

// fit replaces each backing block smaller than the window's total demand
// with one block of that size, so the next window of the same shape is
// served without growing. Called by Network.Infer and Network.InferBatch
// after the last layer; slices already returned keep the old blocks alive.
func (s *Scratch) fit() {
	if s.fNeed > len(s.flat) {
		//dlacep:ignore hotalloc arena sizing: once per kind, when a window outgrew the arena
		s.flat = make([]float64, s.fNeed)
	}
	if s.rNeed > len(s.rows) {
		//dlacep:ignore hotalloc arena sizing: once per kind, when a window outgrew the arena
		s.rows = make([][]float64, s.rNeed)
	}
	if s.mNeed > len(s.mats) {
		//dlacep:ignore hotalloc arena sizing: once per kind, when a window outgrew the arena
		s.mats = make([][][]float64, s.mNeed)
	}
}

// floats bump-allocates a zeroed length-n slice. When the backing array is
// exhausted the arena grows geometrically: slices handed out earlier in the
// window keep the old backing alive, and from the next window on the larger
// array serves everything without allocating.
func (s *Scratch) floats(n int) []float64 {
	s.fNeed += n
	if s.fOff+n > len(s.flat) {
		c := 2 * len(s.flat)
		if c < s.fOff+n {
			c = s.fOff + n
		}
		//dlacep:ignore hotalloc arena growth: geometric, stops at the steady-state high-water mark
		s.flat = make([]float64, c)
		s.fOff = 0
	}
	out := s.flat[s.fOff : s.fOff+n : s.fOff+n]
	s.fOff += n
	for i := range out {
		out[i] = 0
	}
	return out
}

// floatsUninit is floats without the zeroing pass, for buffers whose every
// element the caller overwrites before reading (the fused-projection z, fully
// written output rows, …). Layers that accumulate into — or conditionally
// skip — elements must use floats/matrix instead.
func (s *Scratch) floatsUninit(n int) []float64 {
	s.fNeed += n
	if s.fOff+n > len(s.flat) {
		c := 2 * len(s.flat)
		if c < s.fOff+n {
			c = s.fOff + n
		}
		//dlacep:ignore hotalloc arena growth: geometric, stops at the steady-state high-water mark
		s.flat = make([]float64, c)
		s.fOff = 0
	}
	out := s.flat[s.fOff : s.fOff+n : s.fOff+n]
	s.fOff += n
	return out
}

// rowHeaders bump-allocates n row headers (the [][]float64 spine of a
// matrix); the headers are nil until the caller points them at float data.
func (s *Scratch) rowHeaders(n int) [][]float64 {
	s.rNeed += n
	if s.rOff+n > len(s.rows) {
		c := 2 * len(s.rows)
		if c < s.rOff+n {
			c = s.rOff + n
		}
		//dlacep:ignore hotalloc arena growth: geometric, stops at the steady-state high-water mark
		s.rows = make([][]float64, c)
		s.rOff = 0
	}
	out := s.rows[s.rOff : s.rOff+n : s.rOff+n]
	s.rOff += n
	for i := range out {
		out[i] = nil
	}
	return out
}

// matHeaders bump-allocates n matrix headers (the [][][]float64 spine of a
// window batch); the headers are nil until the caller points them at
// matrices. Backs the K-window batch path (inferbatch.go).
func (s *Scratch) matHeaders(n int) [][][]float64 {
	s.mNeed += n
	if s.mOff+n > len(s.mats) {
		c := 2 * len(s.mats)
		if c < s.mOff+n {
			c = s.mOff + n
		}
		//dlacep:ignore hotalloc arena growth: geometric, stops at the steady-state high-water mark
		s.mats = make([][][]float64, c)
		s.mOff = 0
	}
	out := s.mats[s.mOff : s.mOff+n : s.mOff+n]
	s.mOff += n
	for i := range out {
		out[i] = nil
	}
	return out
}

// matrix bump-allocates a zeroed T×D time-major matrix whose rows share one
// contiguous float block. Each row is capacity-clamped so appending to it can
// never clobber its neighbour.
func (s *Scratch) matrix(T, D int) [][]float64 {
	out := s.rowHeaders(T)
	flat := s.floats(T * D)
	for t := range out {
		out[t] = flat[t*D : (t+1)*D : (t+1)*D]
	}
	return out
}

// matrixUninit is matrix without the zeroing pass — same caller contract as
// floatsUninit: every element must be written before it is read.
func (s *Scratch) matrixUninit(T, D int) [][]float64 {
	out := s.rowHeaders(T)
	flat := s.floatsUninit(T * D)
	for t := range out {
		out[t] = flat[t*D : (t+1)*D : (t+1)*D]
	}
	return out
}
