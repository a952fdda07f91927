package train

import (
	"fmt"

	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
)

// optimizer is the server side of network SGD: per-group regularizers,
// momentum velocities, and the weight update applied once per global step.
// NetworkOver drives it for every member set, so a given accumulated
// gradient produces the same weights bit for bit whoever computed it — and
// stateful regularizers (the GM's E/M steps) see exactly one Grad call per
// global step, never per-shard fragments.
type optimizer struct {
	// Params are the parameter groups being optimized, in network order.
	Params []*nn.Param
	// Regs holds the per-group regularizers, keyed by group name — the
	// handles through which learned GM parameters are read out.
	Regs map[string]reg.Regularizer

	regScale float64
	gregs    map[string][]float64
	// vels are the momentum buffers, one per group in Params order;
	// checkpoint capture copies them out and resume copies them back in.
	vels [][]float64
}

// newOptimizer builds the per-group regularizers from factory (wiring the
// batches-per-epoch count into EpochAware ones) and zeroed velocities.
// regScale is the 1/N weighting of the regularization gradient.
func newOptimizer(params []*nn.Param, factory reg.Factory, batchesPerEpoch int, regScale float64) *optimizer {
	o := &optimizer{
		Params:   params,
		Regs:     map[string]reg.Regularizer{},
		regScale: regScale,
		gregs:    map[string][]float64{},
		vels:     make([][]float64, len(params)),
	}
	for i, p := range params {
		o.vels[i] = make([]float64, len(p.W))
		if !p.Regularize {
			continue
		}
		r := factory(len(p.W), p.InitStd)
		if ea, ok := r.(EpochAware); ok {
			ea.SetBatchesPerEpoch(batchesPerEpoch)
		}
		o.Regs[p.Name] = r
		o.gregs[p.Name] = make([]float64, len(p.W))
	}
	return o
}

// Step applies one global SGD+momentum update: each group's accumulated
// data-misfit gradient (already in p.Grad) gets the scaled regularization
// gradient added, then v ← momentum·v − lr·g and w ← w + v.
func (o *optimizer) Step(lr, momentum float64) {
	for i, p := range o.Params {
		if r, ok := o.Regs[p.Name]; ok {
			buf := o.gregs[p.Name]
			r.Grad(p.W, buf)
			tensor.Axpy(o.regScale, buf, p.Grad)
		}
		v := o.vels[i]
		for j := range v {
			v[j] = momentum*v[j] - lr*p.Grad[j]
			p.W[j] += v[j]
		}
	}
}

// GradBank stores per-shard gradient snapshots of a minibatch, one
// flattened buffer per shard, and folds them back in canonical order. The
// ascending left-fold in Reduce is part of the numeric contract: every
// member set produces bit-identical weights because it folds identical
// shard snapshots in the identical order, regardless of which goroutine,
// replica or trainer process computed each snapshot.
type GradBank struct {
	offs []int
	bufs [][]float64
}

// newGradBank sizes buffers for up to shards snapshots of params' layout.
func newGradBank(params []*nn.Param, shards int) *GradBank {
	offs := make([]int, len(params)+1)
	for i, p := range params {
		offs[i+1] = offs[i] + len(p.W)
	}
	bufs := make([][]float64, shards)
	for s := range bufs {
		bufs[s] = make([]float64, offs[len(params)])
	}
	return &GradBank{offs: offs, bufs: bufs}
}

// Capture snapshots every group's Grad as shard s's contribution. params
// must share the constructor's layout (architectural clones do); distinct
// shards may be captured concurrently.
func (g *GradBank) Capture(s int, params []*nn.Param) {
	buf := g.bufs[s]
	for i, p := range params {
		copy(buf[g.offs[i]:g.offs[i+1]], p.Grad)
	}
}

// ShardLen returns the flattened per-shard buffer length (the sum of all
// parameter-group sizes) — the length LoadShard expects and the layout
// remote trainers flatten their gradients into.
func (g *GradBank) ShardLen() int { return g.offs[len(g.offs)-1] }

// LoadShard overwrites shard s's snapshot with an externally computed
// flattened gradient in the Capture layout (groups concatenated in network
// order). This is how the distributed coordinator (internal/distnet) feeds
// gradients that arrived over the wire into the same canonical Reduce fold
// the in-process trainers use.
func (g *GradBank) LoadShard(s int, flat []float64) error {
	if s < 0 || s >= len(g.bufs) {
		return fmt.Errorf("train: shard %d out of range [0, %d)", s, len(g.bufs))
	}
	if len(flat) != g.ShardLen() {
		return fmt.Errorf("train: shard gradient has %d values, bank layout needs %d",
			len(flat), g.ShardLen())
	}
	copy(g.bufs[s], flat)
	return nil
}

// Reduce overwrites params' Grad with the ascending-order sum of shards
// [0, shards).
func (g *GradBank) Reduce(params []*nn.Param, shards int) {
	for i, p := range params {
		for j := range p.Grad {
			p.Grad[j] = 0
		}
		for s := 0; s < shards; s++ {
			tensor.Axpy(1, g.bufs[s][g.offs[i]:g.offs[i+1]], p.Grad)
		}
	}
}
