package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"gmreg/internal/tensor"
)

// Env is the reproducibility header embedded in every BENCH_*.json report:
// the kernel settings in effect (serial cutoff, partition grain, tile shape,
// packing cutoff and whether the tile and cutoff are the compiled-in ones)
// plus the host facts needed to re-create a measurement on another machine.
type Env struct {
	GoVersion  string `json:"go_version"`
	Hostname   string `json:"hostname"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// EffectiveProcs is min(GOMAXPROCS, NumCPU) — the parallelism the
	// harness can actually realize. Scaling claims require it to be ≥ 2.
	EffectiveProcs int `json:"effective_procs"`
	SerialCutoff   int `json:"serial_cutoff"`
	PartitionGrain int `json:"partition_grain"`
	TileM          int `json:"tile_m"`
	TileN          int `json:"tile_n"`
	SmallCutoff    int `json:"small_cutoff"`
	// TuneSource is "default" when the tile and packing cutoff are the
	// compiled-in values, or "manual" after SetTileShape/SetSmallCutoff.
	TuneSource string `json:"tune_source"`
}

// CaptureEnv snapshots the live environment and kernel configuration.
func CaptureEnv() Env {
	host, _ := os.Hostname()
	mr, nr := tensor.TileShape()
	return Env{
		GoVersion:      runtime.Version(),
		Hostname:       host,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		EffectiveProcs: min(runtime.GOMAXPROCS(0), runtime.NumCPU()),
		SerialCutoff:   tensor.SerialCutoff(),
		PartitionGrain: tensor.PartitionGrain(),
		TileM:          mr,
		TileN:          nr,
		SmallCutoff:    tensor.SmallCutoff(),
		TuneSource:     tensor.TuneSource(),
	}
}

// Header opens every scaling-sensitive BENCH_*.json report (hotpath,
// dataparallel, distnet, serveload): the environment plus one scaling stamp.
type Header struct {
	Env Env `json:"env"`
	// ScalingValid is false when the run could not realize parallelism
	// (effective GOMAXPROCS < 2): replicas, trainers, or load generator and
	// server then share one CPU, so speedup, efficiency and latency-under-load
	// numbers measure contention, not scaling. ScalingNote says why.
	ScalingValid bool   `json:"scaling_valid"`
	ScalingNote  string `json:"scaling_note,omitempty"`
}

// captureHeader snapshots the environment and stamps it.
func captureHeader() Header {
	env := CaptureEnv()
	note := env.ScalingInvalidReason()
	return Header{Env: env, ScalingValid: note == "", ScalingNote: note}
}

// ScalingInvalidReason returns "" when the environment can realize real
// parallelism, or the reason scaling numbers must be stamped invalid. The
// harness refuses to set scaling_valid:true whenever this is non-empty.
func (e Env) ScalingInvalidReason() string {
	if e.EffectiveProcs >= 2 {
		return ""
	}
	return fmt.Sprintf("effective GOMAXPROCS is %d (gomaxprocs=%d, num_cpu=%d): replicas and pool workers share one CPU, so speedup/efficiency columns measure fan-out overhead, not scaling",
		e.EffectiveProcs, e.GOMAXPROCS, e.NumCPU)
}

// warnScaling prints the invalid-scaling warning when applicable.
func (e Env) warnScaling(w io.Writer) {
	if reason := e.ScalingInvalidReason(); reason != "" {
		fmt.Fprintln(w, "WARNING: scaling_valid=false —", reason)
	}
}
