// Package nn is the from-scratch deep-learning engine the repository uses in
// place of the paper's Apache SINGA substrate. It provides the layer types of
// the paper's Table III (convolution, max/average pooling, ReLU, local
// response normalization, batch normalization, dense, softmax cross-entropy)
// with explicit forward/backward passes over NCHW float64 tensors.
//
// Parameters are exposed as flat []float64 groups so the adaptive GM
// regularizer (internal/core) and the fixed baselines (internal/reg) can
// consume them without copies — the only contract the paper's tool needs
// from its host framework.
package nn

import (
	"fmt"

	"gmreg/internal/tensor"
)

// Param is one learnable parameter group (a layer's weights or biases),
// stored flat. Grad accumulates the data-misfit gradient during Backward and
// is consumed (and zeroed) by the optimizer.
type Param struct {
	// Name is the layer-qualified name, e.g. "conv1/weight".
	Name string
	// W is the flat parameter vector.
	W []float64
	// Grad is the flat gradient buffer, same length as W.
	Grad []float64
	// InitStd is the standard deviation used to initialize W; the GM
	// regularizer anchors its precision grid at one tenth of 1/InitStd²
	// (paper §V-E).
	InitStd float64
	// Regularize marks whether the penalty term applies to this group.
	// Following the paper (and common practice) weights are regularized,
	// biases and batch-norm scale/shift are not.
	Regularize bool
}

// newParam allocates a parameter group of n entries.
func newParam(name string, n int, initStd float64, regularize bool) *Param {
	return &Param{
		Name:       name,
		W:          make([]float64, n),
		Grad:       make([]float64, n),
		InitStd:    initStd,
		Regularize: regularize,
	}
}

// Layer is one differentiable stage of a network. Forward must cache
// whatever Backward needs; Backward receives ∂L/∂output and returns
// ∂L/∂input while accumulating parameter gradients into its Params.
//
// Layers are stateful across a Forward/Backward pair and not safe for
// concurrent use. To keep the training hot path allocation-free, layers own
// the tensors they return: a Forward result is valid until that layer's
// next Forward call and a Backward result until its next Backward call.
// Callers that need a longer-lived copy must Clone it.
type Layer interface {
	// Name returns the layer's instance name, e.g. "conv1".
	Name() string
	// Forward computes the layer output for a batch. train distinguishes
	// training from inference for layers like batch normalization.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient to the input gradient.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameter groups (nil if none).
	Params() []*Param
}

// Network is an ordered stack of layers.
//
// Concurrency contract: a Network is single-goroutine. Every layer reuses
// per-layer scratch and output buffers across calls (see ensure), so Forward
// and Backward must never run concurrently on the same Network — not even
// two Forward calls. Concurrent inference needs one replica per goroutine:
// build them with CloneArchitecture (replicas share no mutable state) and
// load each from the same weight records (train.LoadWeights). This is the
// contract the internal/serve replica pool relies on.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// Forward runs the full stack. It is NOT safe for concurrent use: layers
// reuse internal scratch, so concurrent callers must each own a replica
// (see CloneArchitecture). The returned tensor is owned by the last layer
// and valid only until the network's next Forward call.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through the stack in reverse.
func (n *Network) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns every parameter group in the network, in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of scalar parameters, optionally
// restricted to regularized (weight) groups — the count the paper reports
// as "number of dimensions for model parameter".
func (n *Network) NumParams(regularizedOnly bool) int {
	var c int
	for _, p := range n.Params() {
		if regularizedOnly && !p.Regularize {
			continue
		}
		c += len(p.W)
	}
	return c
}

// ZeroGrads clears every parameter gradient buffer.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

func checkRank(l Layer, x *tensor.Tensor, rank int) {
	if x.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", l.Name(), rank, x.Shape))
	}
}
