package tensor

import (
	"fmt"
	"sync/atomic"
)

// Kernel settings are fixed at startup: the platform picks the micro-kernel
// tile (DefaultTile), the packing and serial cutoffs are compiled-in
// constants, and the partition grain is GOMAXPROCS. No file or environment
// variable changes them; only explicit calls do (SetTileShape and
// SetSmallCutoff in tests and benchmarks, SetPartitionGrain from
// cli.ApplyProcs and distnet's Welcome). Every supported tile shape is
// bit-identical (hotpath_test.go), so the tile and the small cutoff affect
// speed only. The partition grain decides how chunked reductions split, so
// it is part of a run's numerics.

// DefaultSmallCutoff is the m·k·n flop count below which the MatMul family
// skips packing and runs the serial axpy kernel.
const DefaultSmallCutoff = 32 * 1024

// DefaultTile is the micro-kernel tile shape every process starts with: 4×4
// on amd64, where the SSE2/AVX packed-double kernel (chosen by CPUID) carries
// that shape past the scalar flop ceiling, and 2×4 elsewhere — the widest
// pure-Go tile whose accumulators stay resident in sixteen float registers.
func DefaultTile() (mr, nr int) {
	if hasSSETile {
		return 4, 4
	}
	return 2, 4
}

// tileShape packs (mr<<8 | nr) into one word so concurrent readers never
// observe a torn pair; smallCutoff is the m*k*n product below which the
// serial axpy kernel runs; manualTune is set once either is changed at
// runtime.
var (
	tileShape   atomic.Int64
	smallCutoff atomic.Int64
	manualTune  atomic.Bool
)

func init() {
	dm, dn := DefaultTile()
	tileShape.Store(int64(dm)<<8 | int64(dn))
	smallCutoff.Store(DefaultSmallCutoff)
}

// TileShape returns the active micro-kernel tile (MR, NR). MR == 0 selects
// the reference blocked kernels.
func TileShape() (mr, nr int) {
	v := tileShape.Load()
	return int(v >> 8), int(v & 0xff)
}

// SetTileShape activates a micro-kernel tile shape. Supported shapes are
// 0×0 (reference blocked kernels), 2×4 and 4×4; anything else is an error.
// All shapes are bit-identical; only speed differs.
func SetTileShape(mr, nr int) error {
	if !supportedTile(mr, nr) {
		return fmt.Errorf("tensor: unsupported tile shape %dx%d", mr, nr)
	}
	tileShape.Store(int64(mr)<<8 | int64(nr))
	manualTune.Store(true)
	return nil
}

func supportedTile(mr, nr int) bool {
	switch [2]int{mr, nr} {
	case [2]int{0, 0}, [2]int{2, 4}, [2]int{4, 4}:
		return true
	}
	return false
}

// SmallCutoff returns the m·k·n flop-count threshold below which the MatMul
// family skips packing and runs the serial axpy kernel.
func SmallCutoff() int { return int(smallCutoff.Load()) }

// SetSmallCutoff overrides the packing threshold (minimum 1).
func SetSmallCutoff(n int) {
	if n < 1 {
		n = 1
	}
	smallCutoff.Store(int64(n))
	manualTune.Store(true)
}

// TuneSource reports where the active tile and packing cutoff came from:
// "default" (the compiled-in values) or "manual" (SetTileShape or
// SetSmallCutoff at runtime).
func TuneSource() string {
	if manualTune.Load() {
		return "manual"
	}
	return "default"
}
