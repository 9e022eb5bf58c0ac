// Package core implements DLACEP itself (Section 4): the input assembler
// that cuts the stream into overlapping marking windows, the two deep
// filter variants (event-network: stacked BiLSTM + Bi-CRF sequence labeler;
// window-network: stacked BiLSTM + pooled binary classifier), the
// duplicate-erasing relay, and the CEP extractor whose per-event ID
// constraint guarantees that emitted matches are a subset of the exact
// match set for negation-free patterns (Section 4.4).
package core

import (
	"fmt"
	"math/rand"

	"dlacep/internal/nn"
	"dlacep/internal/pattern"
)

// Config holds the pipeline hyperparameters of Sections 4.2–4.3.
type Config struct {
	// MarkSize is the number of events the network marks per step; the
	// paper's default is 2·W. Must be at least W.
	MarkSize int
	// StepSize is the stride between marking windows; the paper's default
	// is W. Must be at least max(1, MarkSize−W) so no stream region is
	// skipped.
	StepSize int
	// Hidden is the per-direction BiLSTM hidden size (paper: 75).
	Hidden int
	// Layers is the number of stacked BiLSTM layers (paper: 3), or TCN
	// residual blocks when Arch is "tcn".
	Layers int
	// Arch selects the filter body: "" or "bilstm" for the paper's stacked
	// BiLSTM; "tcn" for the acausal temporal convolutional network the
	// paper compared against in preliminary experiments (Section 4.1).
	Arch string
	// Seed drives all weight initialization and shuffling.
	Seed int64
}

// DefaultConfig returns the paper's configuration for window size w, scaled
// hidden size optional via the Hidden/Layers fields afterwards.
func DefaultConfig(w int) Config {
	return Config{MarkSize: 2 * w, StepSize: w, Hidden: 75, Layers: 3, Seed: 1}
}

// Validate checks the legality constraints of Section 4.2 against the
// pattern's count window size w.
func (c Config) Validate(w int) error {
	if c.MarkSize < w {
		return fmt.Errorf("core: MarkSize %d < window size %d", c.MarkSize, w)
	}
	min := c.MarkSize - w
	if min < 1 {
		min = 1
	}
	if c.StepSize < min {
		return fmt.Errorf("core: StepSize %d < max(1, MarkSize-W) = %d: stream regions would be skipped", c.StepSize, min)
	}
	if c.StepSize > c.MarkSize {
		return fmt.Errorf("core: StepSize %d > MarkSize %d: events would never be marked", c.StepSize, c.MarkSize)
	}
	if c.Hidden <= 0 || c.Layers <= 0 {
		return fmt.Errorf("core: invalid network shape hidden=%d layers=%d", c.Hidden, c.Layers)
	}
	switch c.Arch {
	case "", "bilstm", "tcn":
	default:
		return fmt.Errorf("core: unknown architecture %q (bilstm|tcn)", c.Arch)
	}
	return nil
}

// body builds the configured sequence body.
func (c Config) body(in int, rng *rand.Rand) *nn.Network {
	if c.Arch == "tcn" {
		return nn.NewTCN(in, c.Hidden, c.Layers, 3, rng)
	}
	return nn.NewStackedBiLSTM(in, c.Hidden, c.Layers, rng)
}

// windowSize extracts the count window size of the monitored patterns; all
// patterns of a multi-pattern deployment must share it.
func windowSize(pats []*pattern.Pattern) (int, error) {
	if len(pats) == 0 {
		return 0, fmt.Errorf("core: no patterns")
	}
	w := int(pats[0].Window.Size)
	for _, p := range pats[1:] {
		if int(p.Window.Size) != w {
			return 0, fmt.Errorf("core: patterns with differing window sizes %d vs %d", w, p.Window.Size)
		}
	}
	return w, nil
}
