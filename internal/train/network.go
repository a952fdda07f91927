package train

import (
	"fmt"
	"time"

	"gmreg/internal/data"
	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
)

// NetworkResult bundles a trained network with the per-layer regularizers
// (keyed by parameter-group name, e.g. "conv1/weight") — the handles through
// which Tables IV and V read the learned GM parameters — and the history.
type NetworkResult struct {
	Net     *nn.Network
	Regs    map[string]reg.Regularizer
	History *History
}

// Members is the worker side of network training: whatever computes each
// global minibatch's data-misfit gradient for the server loop in
// NetworkOver. The loop owns everything else — the data stream, the
// optimizer with its per-group regularizers, resume, checkpoints, telemetry
// and the AfterEpoch hook — and applies exactly one regularizer+momentum
// update per global step, like the parameter server of the paper's SINGA
// stack. The in-process members Network builds from SGDConfig.Replicas are
// one transport, the TCP trainer roster of internal/distnet the other.
type Members interface {
	// Width is the data-parallel width: a zero SGDConfig.ShardSize
	// defaults to ceil(batch/Width()). Sequential training is width 1.
	Width() int
	// Step leaves the data-misfit gradient of s's minibatch in the
	// authoritative parameters' Grad and its loss in s.Loss — either
	// computed in place, or shard by shard into s.Bank() and s.Losses and
	// then summed with s.Fold.
	Step(s *Step) error
}

// Step is one global minibatch handed to Members.Step. The loop reuses a
// single Step for the whole run.
type Step struct {
	// Epoch is the 0-based epoch the step belongs to.
	Epoch int
	// X and Y are the global minibatch: X.Shape[0] rows and their labels.
	X *tensor.Tensor
	Y []int
	// ShardSize is the effective micro-shard size; the minibatch splits
	// into Shards = ceil(rows/ShardSize) shards, shard s covering rows
	// [s·ShardSize, min((s+1)·ShardSize, rows)).
	ShardSize, Shards int
	// Params are the authoritative network's parameter groups, in
	// optimizer order.
	Params []*nn.Param
	// Losses holds per-shard losses for Fold; Bank sizes it.
	Losses []float64
	// Capture snapshots the full training state as of the last completed
	// update (distnet writes one at every membership change).
	Capture func() *State
	// Loss is the minibatch's data loss, set by Step or Fold.
	Loss float64

	bank      *GradBank
	maxShards int
	tel       *telemetry
}

// Bank returns the per-shard gradient bank for Fold, building it and
// Losses on first use: a sequential run whose batches are single shards
// computes in place and never holds either.
func (s *Step) Bank() *GradBank {
	if s.bank == nil {
		s.bank = newGradBank(s.Params, s.maxShards)
		s.Losses = make([]float64, s.maxShards)
	}
	return s.bank
}

// Fold sums shards [0, Shards) of Bank into Params' Grad and of Losses into
// Loss, both in ascending shard order, and returns how long the gradient
// fold took. The fixed order is the numeric contract: any member set that
// computes the same shards folds the same bits, whichever worker computed
// which shard.
func (s *Step) Fold() time.Duration {
	t0 := time.Now()
	s.bank.Reduce(s.Params, s.Shards)
	d := time.Since(t0)
	s.tel.AddFold(d)
	s.Loss = 0
	for _, l := range s.Losses[:s.Shards] {
		s.Loss += l
	}
	return d
}

// AverageStats overwrites the running statistics of the authoritative
// batch-norm layers bns with their mean over the members that computed
// shards this step, summed in the given member order (ghost batch norm,
// DESIGN.md §8). Each element is one member's statistics: per batch-norm
// layer in network order, the running mean then the running variance, each
// one value per channel.
func AverageStats(bns []*nn.BatchNorm, members [][][]float64) {
	if len(members) == 0 {
		return
	}
	inv := 1 / float64(len(members))
	for i, b := range bns {
		mean, variance := b.Stats()
		for c := range mean {
			mean[c], variance[c] = 0, 0
		}
		for _, st := range members {
			for c := range mean {
				mean[c] += st[2*i][c]
				variance[c] += st[2*i+1][c]
			}
		}
		for c := range mean {
			mean[c] *= inv
			variance[c] *= inv
		}
	}
}

// Network trains a network on an image set with SGD+momentum. Every
// regularized parameter group (layer weights, not biases or batch-norm
// scales) gets its own regularizer from factory, mirroring the paper's
// per-layer GMs that all share one hyper-parameter recipe. The
// regularization gradient is scaled by 1/N like in LogReg.
//
// cfg.Replicas > 1 trains synchronous data-parallel over that many
// in-process replicas: each global minibatch is split into micro-shards of
// cfg.ShardSize rows, replica r computes shards r, r+R, r+2R, … as jobs on
// the shared worker pool, and the shard gradients are folded in ascending
// shard order before the single optimizer step. With 0 or 1 replicas the
// shards run one after another on net itself, and a batch that is one
// shard runs forward/backward in place with no per-shard buffers.
//
// Because the partition is fixed by ShardSize (not by the replica count)
// and the fold order is canonical, training is bit-identical across
// replica counts at equal ShardSize, with prefetch on or off. Batch-norm
// layers normalize per shard (ghost batch norm): weights still match, and
// the running statistics are the replicas' mean — one sequential EMA at
// width 1 (DESIGN.md §8). Networks with dropout train deterministically
// but are not replica-count-invariant (each replica owns its own dropout
// stream).
func Network(net *nn.Network, trainSet *data.ImageSet, cfg SGDConfig, factory reg.Factory) (*NetworkResult, error) {
	var members Members = sequential{net}
	if cfg.Replicas > 1 {
		members = newReplicas(net, cfg.Replicas)
	}
	return NetworkOver(net, trainSet, cfg, factory, members)
}

// NetworkOver is the network training loop over an explicit member set;
// Network calls it with in-process replicas and distnet.Coordinate with its
// TCP trainers. net holds the authoritative weights and is the result's
// Net.
func NetworkOver(net *nn.Network, trainSet *data.ImageSet, cfg SGDConfig, factory reg.Factory, members Members) (*NetworkResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BarzilaiBorwein {
		return nil, fmt.Errorf("train: Barzilai–Borwein steps are supported for LogReg only")
	}
	if trainSet.N == 0 {
		return nil, fmt.Errorf("train: empty training set")
	}
	batch := min(cfg.BatchSize, trainSet.N)
	nBatches := (trainSet.N + batch - 1) / batch
	width := members.Width()
	ss := ShardSize(cfg.ShardSize, batch, width)
	maxShards := (batch + ss - 1) / ss

	opt := newOptimizer(net.Params(), factory, nBatches, 1/float64(trainSet.N))
	hist := &History{}
	ckpt := newCkptRunner(cfg.Ckpt, cfg.Sink)
	startEpoch := 0
	if cfg.Ckpt != nil && cfg.Ckpt.Resume != nil {
		if err := restoreNetwork(cfg.Ckpt.Resume, cfg, ss, net, opt, hist); err != nil {
			return nil, err
		}
		startEpoch = cfg.Ckpt.Resume.Epoch
	}
	capture := func() *State { return captureNetwork(cfg, ss, net, opt, hist) }
	batches := data.NewBatches(trainSet, data.StreamConfig{
		Batch:       batch,
		Epochs:      cfg.Epochs,
		Seed:        cfg.Seed,
		Augment:     cfg.Augment,
		Prefetch:    cfg.Prefetch,
		SkipBatches: startEpoch * nBatches,
	})
	defer batches.Close()

	tel := newTelemetry(cfg.Sink, width)
	step := &Step{ShardSize: ss, Params: opt.Params, Capture: capture, maxShards: maxShards, tel: tel}
	start := time.Now()
	completed := startEpoch
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		lr := cfg.lrAt(epoch)
		var epochLoss float64
		for b := 0; b < nBatches; b++ {
			x, y := batches.Next()
			step.Epoch, step.X, step.Y = epoch, x, y
			step.Shards = (x.Shape[0] + ss - 1) / ss
			if err := members.Step(step); err != nil {
				return nil, err
			}
			epochLoss += step.Loss
			opt.Step(lr, cfg.Momentum)
		}
		meanLoss := epochLoss / float64(nBatches)
		hist.EpochLoss = append(hist.EpochLoss, meanLoss)
		hist.EpochTime = append(hist.EpochTime, time.Since(start))
		tel.Epoch(epoch, meanLoss, lr, time.Since(start), opt.Regs)
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
	return &NetworkResult{Net: net, Regs: opt.Regs, History: hist}, nil
}

// ShardSize is the effective micro-shard size of a run: shard when
// positive, else ceil(batch/width) — one shard per member, the whole batch
// sequentially — and never more than batch.
func ShardSize(shard, batch, width int) int {
	if shard <= 0 {
		shard = (batch + width - 1) / width
	}
	return min(shard, batch)
}

// replicaPool schedules replica bodies as jobs on the shared worker pool,
// so R replicas never add goroutines beyond the pool's fixed worker set
// (the budget that keeps total concurrency ≤ GOMAXPROCS even with nested
// kernel parallelism). Package-level so tests can substitute a wider pool
// to force real replica concurrency on small machines.
var replicaPool = tensor.Pool()

// sequential is the width-1 member set: the authoritative network computes
// every shard itself.
type sequential struct{ net *nn.Network }

func (sequential) Width() int { return 1 }

func (m sequential) Step(s *Step) error {
	if s.Shards == 1 {
		// Whole batch as one shard: the gradient accumulates straight into
		// the parameters' Grad, with no bank round-trip.
		logits := m.net.Forward(s.X, true)
		loss, dLogits := nn.SoftmaxCrossEntropy(logits, s.Y)
		s.Loss = loss
		m.net.ZeroGrads()
		m.net.Backward(dLogits)
		return nil
	}
	bank := s.Bank()
	for sh := 0; sh < s.Shards; sh++ {
		s.runShard(bank, m.net, s.Params, sh)
	}
	s.Fold()
	return nil
}

// replicas is the in-process member set of width R > 1: R architectural
// clones of the authoritative network.
type replicas struct {
	reps []replica
	bns  []*nn.BatchNorm // the authoritative network's
	// stats[r] is replica r's live batch-norm statistics in the
	// AverageStats layout.
	stats [][][]float64
}

// replica is one clone plus its parameter groups, in the authoritative
// network's order, for the broadcast.
type replica struct {
	net    *nn.Network
	params []*nn.Param
}

func newReplicas(net *nn.Network, r int) *replicas {
	m := &replicas{reps: make([]replica, r), bns: net.BatchNorms(), stats: make([][][]float64, r)}
	for i := range m.reps {
		c := net.CloneArchitecture()
		m.reps[i] = replica{net: c, params: c.Params()}
		for _, b := range c.BatchNorms() {
			mean, variance := b.Stats()
			m.stats[i] = append(m.stats[i], mean, variance)
		}
	}
	return m
}

func (m *replicas) Width() int { return len(m.reps) }

func (m *replicas) Step(s *Step) error {
	m.broadcast(s)
	bank := s.Bank()
	R := len(m.reps)
	active := min(R, s.Shards)
	// Scatter: replica r owns shards r, r+R, … — a fixed map, so each
	// bank/loss slot has exactly one writer and the Each barrier orders
	// those writes before the fold reads them.
	replicaPool.Each(active, func(r int) {
		rep := &m.reps[r]
		for sh := r; sh < s.Shards; sh += R {
			s.runShard(bank, rep.net, rep.params, sh)
		}
	})
	s.Fold()
	AverageStats(m.bns, m.stats[:active])
	return nil
}

// broadcast pushes the authoritative weights and batch-norm running
// statistics — as of the previous update, or of the resume — to every
// replica before it computes.
func (m *replicas) broadcast(s *Step) {
	for r, rep := range m.reps {
		for i, p := range s.Params {
			copy(rep.params[i].W, p.W)
		}
		for i, b := range m.bns {
			mean, variance := b.Stats()
			copy(m.stats[r][2*i], mean)
			copy(m.stats[r][2*i+1], variance)
		}
	}
}

// runShard runs forward/backward for shard sh on net — the authoritative
// network or a replica whose parameter groups are params — and captures
// the pre-scaled gradient and loss into the shard's bank and loss slots.
func (s *Step) runShard(bank *GradBank, net *nn.Network, params []*nn.Param, sh int) {
	n := s.X.Shape[0]
	lo := sh * s.ShardSize
	hi := min(lo+s.ShardSize, n)
	logits := net.Forward(s.X.Rows(lo, hi), true)
	loss, dl := nn.SoftmaxCrossEntropyScaled(logits, s.Y[lo:hi], n)
	net.ZeroGrads()
	net.Backward(dl)
	bank.Capture(sh, params)
	s.Losses[sh] = loss
}

// EvalNetwork returns classification accuracy of the network on an image set
// (inference mode), evaluated in batches.
func EvalNetwork(net *nn.Network, set *data.ImageSet, batchSize int) float64 {
	if set.N == 0 {
		return 0
	}
	if batchSize < 1 {
		batchSize = 64
	}
	var correct int
	idx := make([]int, 0, batchSize)
	for lo := 0; lo < set.N; lo += batchSize {
		hi := lo + batchSize
		if hi > set.N {
			hi = set.N
		}
		idx = idx[:0]
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		x, y := set.Batch(idx)
		pred := nn.Predict(net.Forward(x, false))
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(set.N)
}
