package online

// Golden oracle for the online SGD step: the final published weights and the
// last minibatch loss of a pinned stream must stay bit-identical across
// internal restructuring of the trainer. Regenerate deliberately with
// GMREG_UPDATE_GOLDEN=1 go test ./internal/online -run Golden; any mismatch
// means the step or the prior's gradient changed. The weights blob is
// compared decoded, value by value: nn.SaveWeights gob-encodes a map, so its
// group order (and hence its raw bytes) varies from run to run.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gmreg/internal/serve"
	"gmreg/internal/store"
)

func TestOnlineGoldenPublish(t *testing.T) {
	weightsPath := filepath.Join("testdata", "golden-online.weights")
	lossPath := filepath.Join("testdata", "golden-online-loss.txt")

	path := filepath.Join(t.TempDir(), "online.store")
	// 810 samples at Batch 16 end on a partial batch, so the final publish
	// follows an off-interval step; momentum exercises the velocity state.
	res, err := Run(context.Background(), &sliceSource{samples: synthStream(810, 0)}, Config{
		Store: path, Key: "synth",
		Batch: 16, LR: 0.2, Momentum: 0.5, PublishEvery: 10, Seed: 7,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st, err := store.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob, _, err := st.Get("synth")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := serve.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	loss := strconv.FormatFloat(res.LastLoss, 'g', -1, 64) + "\n"

	if os.Getenv("GMREG_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(weightsPath, ckpt.Weights, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lossPath, []byte(loss), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden files updated (%d weight bytes, loss %s)", len(ckpt.Weights), loss)
		return
	}
	want, err := os.ReadFile(weightsPath)
	if err != nil {
		t.Fatal(err)
	}
	got, golden := weightBits(t, ckpt, ckpt.Weights), weightBits(t, ckpt, want)
	if len(got) != len(golden) {
		t.Fatalf("published %d weights, golden has %d", len(got), len(golden))
	}
	for i := range got {
		if got[i] != golden[i] {
			t.Fatalf("published weight %d is %v, golden %v", i, math.Float64frombits(got[i]), math.Float64frombits(golden[i]))
		}
	}
	wantLoss, err := os.ReadFile(lossPath)
	if err != nil {
		t.Fatal(err)
	}
	if loss != string(wantLoss) {
		t.Fatalf("last loss %q, golden %q", loss, wantLoss)
	}
}

// weightBits loads a weights blob into ckpt's architecture and returns every
// parameter's bit pattern in network order.
func weightBits(t *testing.T, ckpt *serve.Checkpoint, blob []byte) []uint64 {
	t.Helper()
	net, err := (&serve.Checkpoint{Spec: ckpt.Spec, Weights: blob}).Build()
	if err != nil {
		t.Fatal(err)
	}
	var bits []uint64
	for _, p := range net.Params() {
		for _, w := range p.W {
			bits = append(bits, math.Float64bits(w))
		}
	}
	return bits
}
