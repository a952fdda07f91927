package train_test

// Golden oracle for the Prior-interface refactor: the default zero-mean-GM
// path must stay bit-identical across internal restructuring — byte-equal
// checkpoint files (including the gob framing PR-8-era files used) and an
// identical deterministic telemetry stream. The testdata files were recorded
// from the pre-refactor tree (regenerate deliberately with
// GMREG_UPDATE_GOLDEN=1 go test ./internal/train -run Golden) and any
// mismatch means the refactor changed the numerics, the serialization, or
// the event stream of the default family.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmreg"
	"gmreg/internal/data"
	"gmreg/internal/train"
)

// goldenRun trains the pinned LogReg+GM configuration and returns the final
// checkpoint bytes and the canonical telemetry stream.
func goldenRun(t *testing.T) ([]byte, []string) {
	t.Helper()
	task, err := data.LoadUCI("horse-colic", 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, task.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	dir := t.TempDir()
	sink := &canonSink{}
	cfg := train.SGDConfig{
		LearningRate: 0.5,
		Momentum:     0.9,
		Epochs:       6,
		BatchSize:    32,
		Seed:         3,
		Sink:         sink,
		Ckpt:         &train.CheckpointPolicy{Every: 2, Dir: dir},
	}
	if _, err := train.LogReg(task, rows, cfg, gmreg.New(gmreg.WithSink(sink))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, train.CheckpointName(6)))
	if err != nil {
		t.Fatal(err)
	}
	return raw, sink.events
}

func TestGMGoldenCheckpointBytes(t *testing.T) {
	ckptPath := filepath.Join("testdata", "golden-gm.gmckpt")
	telPath := filepath.Join("testdata", "golden-gm-telemetry.txt")
	raw, events := goldenRun(t)
	stream := strings.Join(events, "\n") + "\n"
	if os.Getenv("GMREG_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(telPath, []byte(stream), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden files updated (%d ckpt bytes, %d events)", len(raw), len(events))
		return
	}
	want, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("GM checkpoint bytes diverge from the pre-refactor oracle: got %d bytes, want %d — the default family is no longer bit-identical", len(raw), len(want))
	}
	wantTel, err := os.ReadFile(telPath)
	if err != nil {
		t.Fatal(err)
	}
	if stream != string(wantTel) {
		t.Fatalf("GM telemetry stream diverges from the pre-refactor oracle")
	}
	// The golden file must also still parse as a resumable-format checkpoint.
	if _, err := train.LoadState(ckptPath); err != nil {
		t.Fatalf("golden checkpoint no longer loads: %v", err)
	}
}
