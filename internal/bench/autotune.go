package bench

import (
	"io"

	"gmreg/internal/tensor"
)

// The autotune experiment runs the kernel calibration sweep (tile shape,
// packing cutoff, serial cutoff, partition grain — see
// internal/tensor/autotune.go), records every timed candidate and the
// chosen configuration into BENCH_autotune.json, applies the winner to the
// running process, and persists it to the per-host cache file so later
// processes on this host start tuned.

// AutotuneReport is the sweep record written to BENCH_autotune.json.
type AutotuneReport struct {
	Env Env `json:"env"`
	// Sweep lists every timed candidate; the chosen one per parameter is
	// flagged. Candidates with ns_per_op 0 were not timed (the serial
	// cutoff and partition grain sweeps are skipped on 1-wide hosts, where
	// they would only measure noise).
	Sweep []tensor.SweepPoint `json:"sweep"`
	// Chosen is the winning configuration, also applied to this process.
	Chosen tensor.TuneConfig `json:"chosen"`
	// PersistedTo is the per-host cache file the config was saved to, or
	// empty if persisting failed (read-only cache dir, etc.).
	PersistedTo string `json:"persisted_to,omitempty"`
}

// AutotuneJSONPath is where the autotune experiment writes its report.
const AutotuneJSONPath = "BENCH_autotune.json"

// RunAutotune calibrates the kernel tunables, applies and persists the
// winner, and prints the sweep.
func RunAutotune(w io.Writer, _ Scale) (*AutotuneReport, error) {
	sectionHeader(w, "Kernel autotune calibration sweep")
	cfg, sweep := tensor.Calibrate(w) // applies every winner as it sweeps
	rep := &AutotuneReport{Sweep: sweep, Chosen: cfg}
	if path, err := tensor.AutotunePath(); err == nil {
		if err := tensor.SaveTune(path, cfg); err == nil {
			rep.PersistedTo = path
		}
	}
	// Captured after applying so the env header shows the tuned state.
	rep.Env = CaptureEnv()

	t := newTable("param", "value", "ns/op", "chosen")
	for _, p := range rep.Sweep {
		mark := ""
		if p.Chosen {
			mark = "*"
		}
		t.addRowf("%s|%s|%.0f|%s", p.Param, p.Value, p.NsPerOp, mark)
	}
	t.write(w)
	return rep, nil
}
