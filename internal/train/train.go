// Package train implements the optimization loop of the paper's Fig. 2: SGD
// with momentum over minibatches, with a per-parameter-group regularizer
// whose gradient greg is added to the data-misfit gradient gll each
// iteration. It drives both logistic regression (the small-dataset
// experiments, §V-C) and the convolutional networks (§V-B), and records the
// per-epoch wall-clock timings that Figs. 5–7 report.
package train

import (
	"fmt"
	"time"

	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/obs"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
)

// SGDConfig configures the optimizer. The paper uses momentum 0.9 with
// learning rate 0.001 (Alex-CIFAR-10), 0.1 (ResNet) and plain SGD for
// logistic regression.
type SGDConfig struct {
	// LearningRate is the SGD step size L.
	LearningRate float64
	// Momentum is the classical momentum coefficient (0 disables it).
	Momentum float64
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size (clamped to the training set size).
	BatchSize int
	// ShardSize, when positive, splits every network minibatch into
	// fixed-size micro-shards processed as independent forward/backward
	// passes whose gradients are summed in ascending shard order before
	// the single regularizer+momentum update. This canonical partition is
	// what data-parallel members share out: any member count folding the
	// same shards in the same order reproduces the same bits. 0 defaults
	// to ceil(BatchSize/width), one shard per member (the whole batch when
	// sequential); pin it to make runs bit-identical across widths.
	// Batch-norm layers normalize over their shard ("ghost batch norm"),
	// so for batch-norm networks ShardSize is a (deterministic) semantic
	// knob, not just an execution detail. Ignored by LogReg.
	ShardSize int
	// Replicas is the number of in-process model replicas Network shares
	// every global minibatch across (0 or 1 = sequential). Ignored by
	// LogReg and by distnet, whose width is its trainer count.
	Replicas int
	// Seed drives shuffling (and augmentation, for image training).
	Seed uint64
	// Prefetch assembles image minibatches one step ahead on a background
	// goroutine (see data.StreamConfig). The batch sequence is
	// bit-identical either way; this only overlaps gather/augmentation
	// with compute. Ignored by LogReg.
	Prefetch bool
	// Augment applies the CIFAR crop+flip augmentation to image batches
	// (the paper enables it for ResNet only).
	Augment bool
	// LRDecayEvery, when positive, multiplies the learning rate by
	// LRDecayFactor every LRDecayEvery epochs (the step schedule ResNet
	// training conventionally uses).
	LRDecayEvery int
	// LRDecayFactor is the multiplicative decay in (0, 1].
	LRDecayFactor float64
	// BarzilaiBorwein switches LogReg to per-epoch Barzilai–Borwein step
	// sizes (SGD-BB, Tan et al. 2016 — the paper's SGD citation [17]): the
	// step is recomputed each epoch from successive iterates and averaged
	// gradients, clamped to [LearningRate/100, LearningRate·100].
	BarzilaiBorwein bool
	// AfterEpoch, when set, is invoked at the end of every epoch with the
	// 0-based epoch index and that epoch's mean training loss. Returning
	// false stops training early (the remaining epochs are skipped and the
	// history ends at the current epoch).
	AfterEpoch func(epoch int, loss float64) bool
	// Sink, when non-nil, receives one obs.Epoch event plus one obs.GMState
	// mixture snapshot per adaptive regularizer at the end of every epoch.
	// Emission only reads training state: a run with a sink (including
	// obs.Discard) is bit-identical to a run without one.
	Sink obs.Sink
	// Ckpt, when non-nil, enables periodic training-state checkpoints
	// and/or resume (see CheckpointPolicy). Checkpointing only reads
	// training state at epoch boundaries: a checkpointed run is
	// bit-identical to an uncheckpointed one, and a resumed run is
	// bit-identical to the uninterrupted original (DESIGN.md §11).
	Ckpt *CheckpointPolicy
}

// Validate reports the first problem with the configuration, or nil.
func (c SGDConfig) Validate() error {
	switch {
	case c.LearningRate <= 0:
		return fmt.Errorf("train: learning rate must be positive, got %v", c.LearningRate)
	case c.Epochs < 1:
		return fmt.Errorf("train: epochs must be at least 1, got %d", c.Epochs)
	case c.BatchSize < 1:
		return fmt.Errorf("train: batch size must be at least 1, got %d", c.BatchSize)
	case c.ShardSize < 0:
		return fmt.Errorf("train: shard size must be non-negative, got %d", c.ShardSize)
	case c.Replicas < 0:
		return fmt.Errorf("train: replica count must be non-negative, got %d", c.Replicas)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("train: momentum must be in [0,1), got %v", c.Momentum)
	case c.LRDecayEvery < 0:
		return fmt.Errorf("train: LRDecayEvery must be non-negative, got %d", c.LRDecayEvery)
	case c.LRDecayEvery > 0 && (c.LRDecayFactor <= 0 || c.LRDecayFactor > 1):
		return fmt.Errorf("train: LRDecayFactor must be in (0,1], got %v", c.LRDecayFactor)
	default:
		return c.Ckpt.validate()
	}
}

// lrAt returns the scheduled learning rate for an epoch (0-based).
func (c SGDConfig) lrAt(epoch int) float64 {
	lr := c.LearningRate
	if c.LRDecayEvery > 0 {
		for e := c.LRDecayEvery; e <= epoch; e += c.LRDecayEvery {
			lr *= c.LRDecayFactor
		}
	}
	return lr
}

// EpochAware lets a stateful regularizer learn the trainer's minibatch count
// (B in the paper's Algorithm 2). The GM regularizer implements it.
type EpochAware interface {
	SetBatchesPerEpoch(b int)
}

// History records one training run. Times are cumulative from the start of
// training to the end of each epoch — the series plotted by Figs. 5 and 7.
type History struct {
	// EpochLoss is the mean training loss of each epoch (data-misfit only).
	EpochLoss []float64
	// EpochTime[i] is the elapsed wall-clock time at the end of epoch i.
	EpochTime []time.Duration
}

// TotalTime returns the full training duration.
func (h *History) TotalTime() time.Duration {
	if len(h.EpochTime) == 0 {
		return 0
	}
	return h.EpochTime[len(h.EpochTime)-1]
}

// FinalLoss returns the last epoch's mean training loss.
func (h *History) FinalLoss() float64 {
	if len(h.EpochLoss) == 0 {
		return 0
	}
	return h.EpochLoss[len(h.EpochLoss)-1]
}

// LogRegResult bundles a trained logistic regression with its regularizer
// (for inspecting learned GM parameters) and history.
type LogRegResult struct {
	Model       *models.LogisticRegression
	Regularizer reg.Regularizer
	History     *History
}

// LogReg trains logistic regression on the given training rows of a task
// with the regularizer built by factory. The regularization gradient is
// scaled by 1/N (N = training rows), matching the MAP objective
// G = Σ_n nll_n + penalty whose stochastic gradient is the batch-mean gll
// plus greg/N. Following the paper the bias is not regularized.
func LogReg(task *data.Task, trainRows []int, cfg SGDConfig, factory reg.Factory) (*LogRegResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(trainRows) == 0 {
		return nil, fmt.Errorf("train: no training rows")
	}
	m := task.NumFeatures()
	rng := tensor.NewRNG(cfg.Seed)
	const initStd = 0.1
	model := models.NewLogisticRegression(m, initStd, rng)
	r := factory(m, initStd)

	batch := cfg.BatchSize
	if batch > len(trainRows) {
		batch = len(trainRows)
	}
	nBatches := (len(trainRows) + batch - 1) / batch
	if ea, ok := r.(EpochAware); ok {
		ea.SetBatchesPerEpoch(nBatches)
	}
	regScale := 1 / float64(len(trainRows))
	sgd := NewLogRegSGD(model, r, cfg.Momentum)
	hist := &History{}

	// Barzilai–Borwein bookkeeping: previous epoch's final iterate and
	// averaged gradient.
	bb := cfg.BarzilaiBorwein
	var prevW, prevAvgG, avgG []float64
	if bb {
		prevW = make([]float64, m)
		prevAvgG = make([]float64, m)
		avgG = make([]float64, m)
	}
	lr := cfg.LearningRate
	tel := newTelemetry(cfg.Sink, 0)
	telRegs := map[string]reg.Regularizer{"weights": r}

	start := time.Now()
	rows := append([]int(nil), trainRows...)
	ckpt := newCkptRunner(cfg.Ckpt, cfg.Sink)
	startEpoch := 0
	if cfg.Ckpt != nil && cfg.Ckpt.Resume != nil {
		st := cfg.Ckpt.Resume
		if err := restoreLogReg(st, cfg, sgd, rng, rows, hist); err != nil {
			return nil, err
		}
		if bb {
			if st.BB == nil {
				return nil, fmt.Errorf("train: checkpoint lacks Barzilai–Borwein state")
			}
			copy(prevW, st.BB.PrevW)
			copy(prevAvgG, st.BB.PrevAvgG)
			lr = st.BB.LR
		}
		startEpoch = st.Epoch
	}
	capture := func() *State {
		var bbState *BBState
		if bb {
			bbState = &BBState{PrevW: f64s(prevW), PrevAvgG: f64s(prevAvgG), LR: lr}
		}
		return captureLogReg(cfg, sgd, rng, rows, bbState, hist)
	}
	completed := startEpoch
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		if !bb {
			lr = cfg.lrAt(epoch)
		}
		rng.ShuffleInts(rows)
		var epochLoss float64
		if bb {
			for i := range avgG {
				avgG[i] = 0
			}
		}
		for b := 0; b < nBatches; b++ {
			lo, hi := b*batch, (b+1)*batch
			if hi > len(rows) {
				hi = len(rows)
			}
			epochLoss += sgd.Step(task.X, task.Y, rows[lo:hi], regScale, lr)
			if bb {
				tensor.Axpy(1/float64(nBatches), sgd.gw, avgG)
			}
		}
		if bb {
			if epoch > 0 {
				lr = bbStep(model.W, prevW, avgG, prevAvgG, lr, cfg.LearningRate, nBatches)
			}
			copy(prevW, model.W)
			copy(prevAvgG, avgG)
		}
		meanLoss := epochLoss / float64(nBatches)
		hist.EpochLoss = append(hist.EpochLoss, meanLoss)
		hist.EpochTime = append(hist.EpochTime, time.Since(start))
		tel.Epoch(epoch, meanLoss, lr, time.Since(start), telRegs)
		completed = epoch + 1
		if err := ckpt.AfterEpoch(completed, capture); err != nil {
			return nil, err
		}
		if cfg.AfterEpoch != nil && !cfg.AfterEpoch(epoch, meanLoss) {
			break
		}
	}
	if completed == cfg.Epochs {
		if err := ckpt.Finish(completed, capture); err != nil {
			return nil, err
		}
	}
	return &LogRegResult{Model: model, Regularizer: r, History: hist}, nil
}

// LogRegSGD is the logistic-regression update every trainer runs, offline
// (LogReg) and online (online.Run): the minibatch data-misfit gradient plus
// the prior's gradient scaled by regScale, then a classical-momentum step on
// the weights and the unregularized bias.
type LogRegSGD struct {
	model    *models.LogisticRegression
	prior    reg.Regularizer
	momentum float64
	// gw is the last step's combined gradient (gll + regScale·greg), which
	// Barzilai–Borwein averages; greg is the prior-gradient scratch.
	gw, greg []float64
	// vel and velB are the weight and bias velocities a checkpoint carries.
	vel  []float64
	velB float64
}

// NewLogRegSGD prepares the update for model under prior with the given
// momentum coefficient (0 is plain SGD).
func NewLogRegSGD(model *models.LogisticRegression, prior reg.Regularizer, momentum float64) *LogRegSGD {
	m := len(model.W)
	return &LogRegSGD{
		model: model, prior: prior, momentum: momentum,
		gw: make([]float64, m), greg: make([]float64, m), vel: make([]float64, m),
	}
}

// Step applies one update from the minibatch rows of x (labels y) at step
// size lr and returns the minibatch's mean negative log likelihood.
func (s *LogRegSGD) Step(x [][]float64, y []int, rows []int, regScale, lr float64) float64 {
	loss, gb := s.model.LossGrad(x, y, rows, s.gw)
	s.prior.Grad(s.model.W, s.greg)
	tensor.Axpy(regScale, s.greg, s.gw)
	for i := range s.vel {
		s.vel[i] = s.momentum*s.vel[i] - lr*s.gw[i]
		s.model.W[i] += s.vel[i]
	}
	s.velB = s.momentum*s.velB - lr*gb
	s.model.B += s.velB
	return loss
}

// bbStep computes the SGD-BB step size from successive iterates and
// per-epoch averaged gradients: η = (1/m)·‖Δw‖²/|Δwᵀ·Δḡ| where m is the
// number of iterations per epoch (the step is applied m times per epoch, so
// the curvature estimate is divided by m). The result is clamped around the
// configured base rate; degenerate curvature keeps the current step.
func bbStep(w, prevW, g, prevG []float64, current, base float64, batchesPerEpoch int) float64 {
	var num, den float64
	for i := range w {
		dw := w[i] - prevW[i]
		dg := g[i] - prevG[i]
		num += dw * dw
		den += dw * dg
	}
	if den < 0 {
		den = -den
	}
	if den < 1e-12 {
		return current
	}
	step := num / den / float64(batchesPerEpoch)
	if lo := base / 100; step < lo {
		step = lo
	}
	if hi := base * 100; step > hi {
		step = hi
	}
	return step
}
