package online

// Golden oracle for the online SGD step: the final published weights and the
// last minibatch loss of a pinned stream must stay bit-identical across
// internal restructuring of the trainer. Regenerate deliberately with
// GMREG_UPDATE_GOLDEN=1 go test ./internal/online -run Golden; any mismatch
// means the step or the prior's gradient changed. The weights blob predates
// ordered checkpoint records: it is a gob of group name → values, so it is
// compared decoded, value by value, in the published checkpoint's group
// order.

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/train"
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
		f := goldenWeights{Groups: map[string][]float64{}, Stats: map[string][]float64{}}
		for _, g := range ckpt.Groups {
			f.Groups[g.Name] = g.W
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(weightsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lossPath, []byte(loss), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden files updated (%d weight bytes, loss %s)", buf.Len(), loss)
		return
	}
	want, err := os.ReadFile(weightsPath)
	if err != nil {
		t.Fatal(err)
	}
	got, golden := groupBits(ckpt.Groups), goldenBits(t, ckpt.Groups, want)
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

// goldenWeights is the layout of the recorded weights blob: parameter-group
// name → values, plus (empty for logreg) batch-norm statistics.
type goldenWeights struct {
	Groups map[string][]float64
	Stats  map[string][]float64
}

// goldenBits decodes a recorded weights blob and returns its values' bit
// patterns in the order of groups, which must name exactly its groups.
func goldenBits(t *testing.T, groups []train.GroupState, blob []byte) []uint64 {
	t.Helper()
	var f goldenWeights
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Groups) != len(groups) || len(f.Stats) != 0 {
		t.Fatalf("golden blob has %d groups and %d stats, checkpoint has %d groups", len(f.Groups), len(f.Stats), len(groups))
	}
	ordered := make([]train.GroupState, len(groups))
	for i, g := range groups {
		w, ok := f.Groups[g.Name]
		if !ok {
			t.Fatalf("golden blob has no group %q", g.Name)
		}
		ordered[i] = train.GroupState{Name: g.Name, W: w}
	}
	return groupBits(ordered)
}

// groupBits returns every parameter's bit pattern in group order.
func groupBits(groups []train.GroupState) []uint64 {
	var bits []uint64
	for _, g := range groups {
		for _, w := range g.W {
			bits = append(bits, math.Float64bits(w))
		}
	}
	return bits
}
