package train_test

// Fault-injection harness for the crash-safe resume contract (DESIGN.md §11):
// a run killed via CheckpointPolicy.DieAtEpoch and resumed from its latest
// checkpoint must be bit-identical to the uninterrupted run — final weights
// compared with ==, final checkpoint files compared byte for byte, and the
// deterministic telemetry stream reassembling exactly. Exercised for
// train.LogReg, train.Network (with batch norm), and train.Network with
// in-process replicas at worker widths 1 and 4. The external test package
// lets the harness use the public gmreg facade, which imports train.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gmreg"
	"gmreg/internal/data"
	"gmreg/internal/nn"
	"gmreg/internal/obs"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// canonSink records the deterministic projection of the telemetry stream:
// epoch/loss/LR (bit-exact), full GM snapshots, and merges. Wall-clock
// fields, arena/pool counter deltas, and ckpt events are excluded — they
// describe the process, not the computation (DESIGN.md §11).
type canonSink struct {
	mu     sync.Mutex
	events []string
}

func (c *canonSink) Emit(e obs.Event) {
	var s string
	switch ev := e.(type) {
	case obs.Epoch:
		s = fmt.Sprintf("epoch %d loss=%016x lr=%016x r=%d",
			ev.Epoch, math.Float64bits(ev.Loss), math.Float64bits(ev.LR), ev.Replicas)
	case obs.GMState:
		s = fmt.Sprintf("gm %s e%d k=%d pi=%x lam=%x E=%d M=%d it=%d skip=%016x",
			ev.Group, ev.Epoch, ev.K, ev.Pi, ev.Lambda,
			ev.ESteps, ev.MSteps, ev.Iterations, math.Float64bits(ev.SkipRatio))
	case obs.Merge:
		s = fmt.Sprintf("merge %s %d->%d @%d", ev.Group, ev.FromK, ev.ToK, ev.MStep)
	default:
		return
	}
	c.mu.Lock()
	c.events = append(c.events, s)
	c.mu.Unlock()
}

// assertPrefix / assertSuffix pin the killed run's stream to the head of the
// baseline and the resumed run's stream to its tail; together with the
// coverage check this is the full telemetry bit-identity statement.
func assertPrefix(t *testing.T, label string, got, base []string) {
	t.Helper()
	if len(got) > len(base) {
		t.Fatalf("%s: %d events, baseline has %d", label, len(got), len(base))
	}
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("%s: event %d diverges:\n got  %s\n base %s", label, i, got[i], base[i])
		}
	}
}

func assertSuffix(t *testing.T, label string, got, base []string) {
	t.Helper()
	if len(got) > len(base) {
		t.Fatalf("%s: %d events, baseline has %d", label, len(got), len(base))
	}
	off := len(base) - len(got)
	for i := range got {
		if got[i] != base[off+i] {
			t.Fatalf("%s: event %d diverges:\n got  %s\n base %s", label, i, got[i], base[off+i])
		}
	}
}

// fiImages is the shared image fixture: small enough to train under -race,
// big enough for several batches per epoch.
func fiImages(t *testing.T) *data.ImageSet {
	t.Helper()
	spec := data.DefaultCIFAR(48, 16)
	spec.Size = 8
	spec.Classes = 4
	set, _ := data.GenerateCIFAR(spec, 7)
	return set
}

// fiBNNet is the sequential-trainer fixture with batch norm, so running
// statistics are part of the round-tripped state.
func fiBNNet(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	return nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, 0.1, rng),
		nn.NewBatchNorm("bn1", 4),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 2, 2, 0),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 4*4*4, 4, 0.1, rng),
	)
}

// fiConvNet is the no-batch-norm fixture whose weights AND checkpoint bytes
// must agree between sequential and replicated train.Network at every worker
// width.
func fiConvNet(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	return nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, 0.1, rng),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 2, 2, 0),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 4*4*4, 4, 0.1, rng),
	)
}

func fiCfg(dir string, sink obs.Sink) train.SGDConfig {
	return train.SGDConfig{
		LearningRate: 0.05,
		Momentum:     0.9,
		Epochs:       6,
		BatchSize:    16,
		ShardSize:    4, // pinned: identical canonical partition at any width
		Seed:         9,
		Sink:         sink,
		Ckpt:         &train.CheckpointPolicy{Every: 2, Dir: dir},
	}
}

func weightBits(net *nn.Network) [][]float64 {
	var ws [][]float64
	for _, p := range net.Params() {
		ws = append(ws, append([]float64(nil), p.W...))
	}
	return ws
}

func sameWeights(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d groups", label, len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: group %d weight %d differs: %v vs %v", label, i, j, a[i][j], b[i][j])
			}
		}
	}
}

func finalCkptBytes(t *testing.T, dir string, epochs int) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, train.CheckpointName(epochs)))
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	return raw
}

// resumePolicy builds the continuation policy for dir: resume from its
// latest checkpoint, or from scratch when the kill predated the first write.
func resumePolicy(t *testing.T, dir string) *train.CheckpointPolicy {
	t.Helper()
	pol := &train.CheckpointPolicy{Every: 2, Dir: dir}
	if latest, err := train.LatestCheckpoint(dir); err == nil {
		st, err := train.LoadState(latest)
		if err != nil {
			t.Fatalf("loading %s: %v", latest, err)
		}
		pol.Resume = st
	}
	return pol
}

// TestNetworkFaultInjectResume kills the sequential network trainer after
// every epoch count in turn — before the first checkpoint, right on a
// checkpoint boundary, and between boundaries — and verifies the resumed run
// is indistinguishable from the uninterrupted baseline.
func TestNetworkFaultInjectResume(t *testing.T) {
	images := fiImages(t)

	baseDir := t.TempDir()
	baseSink := &canonSink{}
	baseRes, err := train.Network(fiBNNet(3), images, fiCfg(baseDir, baseSink), gmreg.New(gmreg.WithSink(baseSink)))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	baseW := weightBits(baseRes.Net)
	baseCkpt := finalCkptBytes(t, baseDir, 6)

	for _, dieAt := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("die-at-%d", dieAt), func(t *testing.T) {
			dir := t.TempDir()
			killSink := &canonSink{}
			killCfg := fiCfg(dir, killSink)
			killCfg.Ckpt.DieAtEpoch = dieAt
			_, err := train.Network(fiBNNet(3), images, killCfg, gmreg.New(gmreg.WithSink(killSink)))
			if !errors.Is(err, train.ErrFaultInjected) {
				t.Fatalf("want ErrFaultInjected, got %v", err)
			}
			assertPrefix(t, "killed run telemetry", killSink.events, baseSink.events)

			resSink := &canonSink{}
			resCfg := fiCfg(dir, resSink)
			resCfg.Ckpt = resumePolicy(t, dir)
			res, err := train.Network(fiBNNet(3), images, resCfg, gmreg.New(gmreg.WithSink(resSink)))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			sameWeights(t, "resumed weights", weightBits(res.Net), baseW)
			if !bytes.Equal(finalCkptBytes(t, dir, 6), baseCkpt) {
				t.Fatalf("final checkpoint bytes differ from baseline")
			}
			assertSuffix(t, "resumed run telemetry", resSink.events, baseSink.events)
			if len(killSink.events)+len(resSink.events) < len(baseSink.events) {
				t.Fatalf("killed+resumed telemetry covers %d events, baseline has %d",
					len(killSink.events)+len(resSink.events), len(baseSink.events))
			}
		})
	}
}

// TestDistFaultInjectResume kills and resumes the data-parallel trainer at
// widths 1 and 4 and requires its final checkpoint to match the sequential
// baseline byte for byte — resume does not loosen the replica-invariance
// contract.
func TestDistFaultInjectResume(t *testing.T) {
	images := fiImages(t)

	baseDir := t.TempDir()
	baseRes, err := train.Network(fiConvNet(3), images, fiCfg(baseDir, nil), gmreg.New())
	if err != nil {
		t.Fatalf("sequential baseline: %v", err)
	}
	baseW := weightBits(baseRes.Net)
	baseCkpt := finalCkptBytes(t, baseDir, 6)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			killCfg := fiCfg(dir, nil)
			killCfg.Ckpt.DieAtEpoch = 3
			killCfg.Replicas = workers
			_, err := train.Network(fiConvNet(3), images, killCfg, gmreg.New())
			if !errors.Is(err, train.ErrFaultInjected) {
				t.Fatalf("want ErrFaultInjected, got %v", err)
			}

			resCfg := fiCfg(dir, nil)
			resCfg.Ckpt = resumePolicy(t, dir)
			if resCfg.Ckpt.Resume == nil {
				t.Fatalf("expected a checkpoint before epoch 3")
			}
			resCfg.Replicas = workers
			res, err := train.Network(fiConvNet(3), images, resCfg, gmreg.New())
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			sameWeights(t, "resumed dist weights", weightBits(res.Net), baseW)
			if !bytes.Equal(finalCkptBytes(t, dir, 6), baseCkpt) {
				t.Fatalf("dist final checkpoint differs from sequential baseline bytes")
			}
		})
	}
}

// TestLogRegFaultInjectResume covers the tabular trainer, plain and with the
// Barzilai–Borwein schedule (whose cross-epoch state rides in State.BB).
func TestLogRegFaultInjectResume(t *testing.T) {
	task := data.GenerateHospFA(data.DefaultHospFA(), 5)
	rows := make([]int, task.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	for _, bb := range []bool{false, true} {
		t.Run(fmt.Sprintf("bb-%v", bb), func(t *testing.T) {
			cfg := train.SGDConfig{
				LearningRate:    0.5,
				Momentum:        0.9,
				Epochs:          10,
				BatchSize:       32,
				Seed:            11,
				BarzilaiBorwein: bb,
			}

			baseDir := t.TempDir()
			baseCfg := cfg
			baseCfg.Ckpt = &train.CheckpointPolicy{Every: 3, Dir: baseDir}
			baseRes, err := train.LogReg(task, rows, baseCfg, gmreg.New())
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			baseCkpt := finalCkptBytes(t, baseDir, 10)

			dir := t.TempDir()
			killCfg := cfg
			killCfg.Ckpt = &train.CheckpointPolicy{Every: 3, Dir: dir, DieAtEpoch: 4}
			if _, err := train.LogReg(task, rows, killCfg, gmreg.New()); !errors.Is(err, train.ErrFaultInjected) {
				t.Fatalf("want ErrFaultInjected, got %v", err)
			}

			resCfg := cfg
			resCfg.Ckpt = resumePolicy(t, dir)
			resCfg.Ckpt.Every = 3
			res, err := train.LogReg(task, rows, resCfg, gmreg.New())
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			for i, w := range res.Model.W {
				if w != baseRes.Model.W[i] {
					t.Fatalf("weight %d differs after resume: %v vs %v", i, w, baseRes.Model.W[i])
				}
			}
			if res.Model.B != baseRes.Model.B {
				t.Fatalf("bias differs after resume: %v vs %v", res.Model.B, baseRes.Model.B)
			}
			if !bytes.Equal(finalCkptBytes(t, dir, 10), baseCkpt) {
				t.Fatalf("final checkpoint bytes differ from baseline")
			}
		})
	}
}

// TestCheckpointGuards nails the failure modes resume must refuse: truncated
// files, completed-run checkpoints, and configuration drift.
func TestCheckpointGuards(t *testing.T) {
	images := fiImages(t)
	dir := t.TempDir()
	if _, err := train.Network(fiConvNet(3), images, fiCfg(dir, nil), gmreg.New()); err != nil {
		t.Fatalf("seed run: %v", err)
	}

	latest := filepath.Join(dir, train.CheckpointName(6))
	t.Run("truncated-rejected", func(t *testing.T) {
		raw, err := os.ReadFile(latest)
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Join(t.TempDir(), "cut.gmckpt")
		if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := train.LoadState(cut); err == nil {
			t.Fatal("truncated checkpoint loaded without error")
		}
	})

	t.Run("done-refused", func(t *testing.T) {
		st, err := train.LoadState(latest)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Done {
			t.Fatal("final checkpoint should be marked Done")
		}
		cfg := fiCfg(t.TempDir(), nil)
		cfg.Ckpt.Resume = st
		if err := cfg.Validate(); err == nil {
			t.Fatal("resuming a Done checkpoint validated")
		}
	})

	t.Run("config-drift-refused", func(t *testing.T) {
		ckpts, err := train.LatestCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := train.LoadState(ckpts)
		if err != nil {
			t.Fatal(err)
		}
		st.Done = false
		st.Epoch = 4
		st.EpochLoss = st.EpochLoss[:4]
		cfg := fiCfg(t.TempDir(), nil)
		cfg.Seed++ // drift
		cfg.Ckpt.Resume = st
		if _, err := train.Network(fiConvNet(3), images, cfg, gmreg.New()); err == nil {
			t.Fatal("resume under a different seed succeeded")
		}
	})

	t.Run("retention-pruned", func(t *testing.T) {
		rdir := t.TempDir()
		cfg := fiCfg(rdir, nil)
		cfg.Ckpt.Every = 1
		cfg.Ckpt.Retain = 2
		if _, err := train.Network(fiConvNet(3), images, cfg, gmreg.New()); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(rdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("retention 2 left %d files", len(entries))
		}
		if got := entries[len(entries)-1].Name(); got != train.CheckpointName(6) {
			t.Fatalf("newest retained file is %s", got)
		}
	})
}
