package online

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"gmreg/internal/models"
	"gmreg/internal/obs"
	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
)

// sliceSource replays a fixed sample slice, then ends (io.EOF).
type sliceSource struct {
	samples []Sample
	i       int
}

func (s *sliceSource) Next(ctx context.Context) (Sample, error) {
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	if s.i >= len(s.samples) {
		return Sample{}, io.EOF
	}
	out := s.samples[s.i]
	s.i++
	return out, nil
}

func (s *sliceSource) Close() error { return nil }

// memSink records emitted events by kind.
type memSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (m *memSink) Emit(e obs.Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

func (m *memSink) kinds() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int{}
	for _, e := range m.events {
		out[e.Kind()]++
	}
	return out
}

// synthStream generates n linearly separable samples of dimension 2 with a
// deterministic LCG; flipAt > 0 inverts labels from that index on — the
// distribution shift the drift detector must catch.
func synthStream(n, flipAt int) []Sample {
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(1<<53)*2 - 1 // [-1, 1)
	}
	out := make([]Sample, n)
	for i := range out {
		x1, x2 := next(), next()
		label := 0
		if 1.5*x1-0.8*x2 > 0 {
			label = 1
		}
		if flipAt > 0 && i >= flipAt {
			label = 1 - label
		}
		out[i] = Sample{Features: []float64{x1, x2}, Label: label}
	}
	return out
}

func TestRunValidatesConfig(t *testing.T) {
	src := &sliceSource{samples: synthStream(4, 0)}
	if _, err := Run(context.Background(), src, Config{Key: "k"}); err == nil {
		t.Fatal("missing Store accepted")
	}
	src.i = 0
	if _, err := Run(context.Background(), src, Config{Store: "s"}); err == nil {
		t.Fatal("missing Key accepted")
	}
}

func TestRunPublishesAndLearns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "online.store")
	sink := &memSink{}
	src := &sliceSource{samples: synthStream(800, 0)}
	res, err := Run(context.Background(), src, Config{
		Store: path, Key: "synth",
		Batch: 16, LR: 0.5, PublishEvery: 10,
		Seed: 7, Sink: sink,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Samples != 800 || res.Steps != 50 {
		t.Fatalf("consumed %d samples in %d steps, want 800 in 50", res.Samples, res.Steps)
	}
	// 50 steps at PublishEvery=10 → 5 interval publishes; the stream ends
	// exactly on a boundary so no extra final publish is due.
	if res.Publishes < 2 {
		t.Fatalf("published %d times, want >= 2", res.Publishes)
	}
	if res.WarmStarted {
		t.Fatal("warm-started from an empty store")
	}
	if math.IsNaN(res.LastLoss) || res.LastLoss > math.Ln2 {
		t.Fatalf("final minibatch loss %v did not beat chance (ln 2)", res.LastLoss)
	}
	if got := sink.kinds()["publish"]; got != res.Publishes {
		t.Fatalf("sink saw %d publish events, result says %d", got, res.Publishes)
	}

	// The store must hold every published version, latest last, and the
	// checkpoint must round-trip into a servable predictor.
	st, err := store.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	blob, v, err := st.Get("synth")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if v.Seq != res.LastVersion.Seq || v.Seq != res.Publishes {
		t.Fatalf("latest seq %d, want %d (= publishes)", v.Seq, res.Publishes)
	}
	ckpt, err := serve.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatalf("UnmarshalCheckpoint: %v", err)
	}
	if ckpt.Spec.Family != "logreg" || ckpt.Spec.In != 2 {
		t.Fatalf("published spec %+v", ckpt.Spec)
	}
	if !slices.Contains(ckpt.Meta, serve.MetaEntry{Key: "mode", Value: "online"}) ||
		!slices.Contains(ckpt.Meta, serve.MetaEntry{Key: "samples", Value: "800"}) {
		t.Fatalf("published meta %v", ckpt.Meta)
	}
	if len(ckpt.Regs) != 1 || ckpt.Regs[0].Name != "weights" || ckpt.Regs[0].GM.M != 2 {
		t.Fatalf("published GM records %+v, want one 2-dimension mixture for %q", ckpt.Regs, "weights")
	}
	m := &serve.Model{Key: "synth", Version: v, Ckpt: ckpt}
	p, err := serve.NewPredictor(m, serve.Config{Replicas: 1, MaxBatch: 1, QueueCap: 1})
	if err != nil {
		t.Fatalf("NewPredictor on published checkpoint: %v", err)
	}
	defer p.Close()
	probs := make([]float64, 2)
	if _, err := p.PredictInto(context.Background(), []float64{0.5, -0.5}, probs, nil); err != nil {
		t.Fatalf("PredictInto: %v", err)
	}
}

func TestRunWarmStartsFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "online.store")
	cfg := Config{
		Store: path, Key: "synth",
		Batch: 16, LR: 0.5, PublishEvery: 10, Seed: 7,
	}
	first, err := Run(context.Background(), &sliceSource{samples: synthStream(320, 0)}, cfg)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}

	// The restored W and B are the stored checkpoint's, bit for bit: the
	// warm-started model maps back onto exactly the published weights.
	st, err := store.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob, _, err := st.Get("synth")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := serve.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	model := models.NewLogisticRegression(2, 0.1, tensor.NewRNG(99))
	if ok, err := warmStart(path, "synth", model); !ok || err != nil {
		t.Fatalf("warmStart = %v, %v; want true, nil", ok, err)
	}
	restored, err := serve.NewCheckpoint(stored.Spec, models.LogRegNetwork(model), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, want := groupBits(restored.Groups), groupBits(stored.Groups)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored parameter %d is %v, stored %v", i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}

	second, err := Run(context.Background(), &sliceSource{samples: synthStream(320, 0)}, cfg)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !second.WarmStarted {
		t.Fatal("second run did not warm-start from the published checkpoint")
	}
	if second.LastVersion.Seq <= first.LastVersion.Seq {
		t.Fatalf("versions did not keep advancing: %d then %d",
			first.LastVersion.Seq, second.LastVersion.Seq)
	}
}

// TestRunDetectsDriftOnLabelFlip validates the exact mechanism (and default
// window/threshold scale) the CI online job's injected mid-stream flip relies
// on: inverting the labels re-routes the weights, the learned mixture's
// (π, λ) move with them, and the windowed detector fires.
func TestRunDetectsDriftOnLabelFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "online.store")
	sink := &memSink{}
	src := &sliceSource{samples: synthStream(3200, 1600)}
	res, err := Run(context.Background(), src, Config{
		Store: path, Key: "synth",
		Batch: 16, LR: 0.5, PublishEvery: 20,
		DriftWindow: 20, DriftThreshold: 0.35, DriftBurnIn: 2,
		Seed: 7, Sink: sink,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Drifts < 1 {
		t.Fatalf("label flip at sample 1600 went undetected (0 drift events in %d steps)", res.Steps)
	}
	if got := sink.kinds()["drift"]; got != res.Drifts {
		t.Fatalf("sink saw %d drift events, result says %d", got, res.Drifts)
	}
	// The detector must not fire during the stationary first half.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, e := range sink.events {
		if d, ok := e.(obs.Drift); ok && d.Samples <= 1600 {
			t.Fatalf("drift fired at sample %d, before the flip", d.Samples)
		}
	}
}

func TestRunRejectsDimensionChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "online.store")
	src := &sliceSource{samples: []Sample{
		{Features: []float64{1, 2}, Label: 0},
		{Features: []float64{1, 2}, Label: 1},
		{Features: []float64{1}, Label: 0},
	}}
	_, err := Run(context.Background(), src, Config{
		Store: path, Key: "synth", Batch: 2,
	})
	if err == nil {
		t.Fatal("mid-stream dimension change accepted")
	}
}

// TestRunRefusesCorruptStore: a store file that exists but cannot be read,
// or a key whose checkpoint cannot be decoded, stops the run before it
// trains or publishes; a checkpoint of another dimension still cold-starts.
func TestRunRefusesCorruptStore(t *testing.T) {
	logreg := func(in int) *serve.Checkpoint {
		l := models.NewLogisticRegression(in, 0.1, tensor.NewRNG(5))
		c, err := serve.NewCheckpoint(models.Spec{Family: "logreg", In: in}, models.LogRegNetwork(l), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name    string
		plant   func(path string)
		wantErr bool
	}{
		{"truncated store", func(path string) {
			if _, err := serve.PublishCheckpoint(path, "synth", logreg(2)); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"undecodable checkpoint", func(path string) {
			st := store.New()
			if _, err := st.Put("synth", []byte("not a checkpoint")); err != nil {
				t.Fatal(err)
			}
			if err := store.SaveFile(path, st); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"other dimension", func(path string) {
			if _, err := serve.PublishCheckpoint(path, "synth", logreg(3)); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "online.store")
			tc.plant(path)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), &sliceSource{samples: synthStream(64, 0)}, Config{
				Store: path, Key: "synth", Batch: 16, PublishEvery: 2, Seed: 7,
			})
			if !tc.wantErr {
				if err != nil || res.WarmStarted || res.Publishes == 0 {
					t.Fatalf("Run = %+v, %v; want a cold start that publishes", res, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Run over a corrupt store succeeded: %+v", res)
			}
			if res != nil && (res.Steps > 0 || res.Publishes > 0) {
				t.Fatalf("Run trained %d steps and published %d times before failing", res.Steps, res.Publishes)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("the corrupt store file was rewritten")
			}
		})
	}
}
