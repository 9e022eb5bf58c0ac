package core

import (
	"testing"

	"dlacep/internal/dataset"
)

// FuzzProcessorEquivalence cross-checks the two steppers over fuzzed stream
// shapes and window geometries: the incremental Processor and RunWindows
// over the Processor's window geometry must emit the same match keys in
// the same order, the same relay/total counts and the same CEP counters.
func FuzzProcessorEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(2), uint64(3))
	f.Add(int64(7), uint16(16), uint8(8), uint64(0))
	f.Add(int64(42), uint16(1), uint8(3), uint64(9))
	f.Add(int64(-5), uint16(333), uint8(0), uint64(17))
	f.Add(int64(11), uint16(57), uint8(0xff), uint64(5))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, geom uint8, salt uint64) {
		const w = 8
		length := int(n)%400 + 1
		// Every legal geometry for W = 8: W ≤ MarkSize ≤ 2W and
		// max(1, MarkSize−W) ≤ StepSize ≤ MarkSize.
		mark := w + int(geom%16)%(w+1)
		lo := max(1, mark-w)
		step := lo + int(geom/16)%(mark-lo+1)
		cfg := smallCfg(w)
		cfg.MarkSize, cfg.StepSize = mark, step
		st := dataset.Synthetic(length, 4, seed)
		pl := multiPipelineCfg(t, hashFilter{salt: salt}, cfg)
		proc, streamed := processorRun(t, pl, st)
		requireSameRun(t, "fuzz", proc, streamed, windowsRun(t, pl, st))
	})
}
