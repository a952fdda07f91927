package nn

import (
	"fmt"

	"gmreg/internal/tensor"
)

// CloneArchitecture returns a structurally identical network that shares no
// mutable state with the receiver: every layer is rebuilt with the same
// hyperparameters but freshly allocated parameters, gradients and scratch.
//
// Parameter values are NOT copied — weight groups come back zeroed (batch
// norm γ at 1, running variance at 1, as after construction) so the clone is
// meant to be filled by train.LoadWeights from captured weight records. This
// is the replica constructor the serving subsystem uses: N clones loaded from
// the same records can run Forward concurrently, one goroutine each, which a
// shared Network cannot (see the Network concurrency contract).
func (n *Network) CloneArchitecture() *Network {
	return NewNetwork(cloneLayers(n.Layers)...)
}

// cloneLayers clones a layer slice, preserving nil (identity shortcuts).
func cloneLayers(ls []Layer) []Layer {
	if ls == nil {
		return nil
	}
	out := make([]Layer, len(ls))
	for i, l := range ls {
		out[i] = cloneLayer(l)
	}
	return out
}

// cloneLayer rebuilds one layer from its hyperparameters. It panics on an
// unknown layer type so architecture drift is caught immediately rather than
// by replicas silently sharing state.
func cloneLayer(l Layer) Layer {
	switch t := l.(type) {
	case *Conv2D:
		c := &Conv2D{
			name: t.name, inC: t.inC, outC: t.outC,
			kh: t.kh, kw: t.kw, stride: t.stride, pad: t.pad,
			weight: newParam(t.weight.Name, len(t.weight.W), t.weight.InitStd, t.weight.Regularize),
			bias:   newParam(t.bias.Name, len(t.bias.W), t.bias.InitStd, t.bias.Regularize),
		}
		c.wm = tensor.FromSlice(c.weight.W, t.wm.Shape[0], t.wm.Shape[1])
		return c
	case *Dense:
		d := &Dense{
			name: t.name, in: t.in, out: t.out,
			weight: newParam(t.weight.Name, len(t.weight.W), t.weight.InitStd, t.weight.Regularize),
			bias:   newParam(t.bias.Name, len(t.bias.W), t.bias.InitStd, t.bias.Regularize),
		}
		d.wm = tensor.FromSlice(d.weight.W, t.wm.Shape[0], t.wm.Shape[1])
		return d
	case *BatchNorm:
		b := NewBatchNorm(t.name, t.channels)
		b.Eps, b.Momentum = t.Eps, t.Momentum
		return b
	case *ReLU:
		return NewReLU(t.name)
	case *Flatten:
		return NewFlatten(t.name)
	case *LRN:
		c := NewLRN(t.name)
		c.Size, c.Alpha, c.Beta, c.K = t.Size, t.Alpha, t.Beta, t.K
		return c
	case *MaxPool2D:
		return NewMaxPool2D(t.name, t.k, t.stride, t.pad)
	case *AvgPool2D:
		return &AvgPool2D{name: t.name, k: t.k, stride: t.stride, pad: t.pad, global: t.global}
	case *Residual:
		return NewResidual(t.name, cloneLayers(t.Body), cloneLayers(t.Shortcut))
	case *Dropout:
		// The clone gets its own RNG stream; at inference dropout is the
		// identity, so the seed only matters if a replica is trained.
		return &Dropout{name: t.name, Rate: t.Rate, rng: tensor.NewRNG(0x9e3779b97f4a7c15)}
	default:
		panic(fmt.Sprintf("nn: CloneArchitecture: unsupported layer type %T (%s)", l, l.Name()))
	}
}

// BatchNorms returns every batch-norm layer of the network in depth-first
// layer order — the same order for architectural clones — so replica
// running statistics can be paired positionally with the authoritative
// network's.
func (n *Network) BatchNorms() []*BatchNorm {
	var out []*BatchNorm
	for _, l := range allLayers(n.Layers) {
		if b, ok := l.(*BatchNorm); ok {
			out = append(out, b)
		}
	}
	return out
}

// allLayers flattens the layer tree depth-first, descending into residual
// blocks, so serialization and inspection can reach every layer.
func allLayers(ls []Layer) []Layer {
	var out []Layer
	for _, l := range ls {
		out = append(out, l)
		if r, ok := l.(*Residual); ok {
			out = append(out, allLayers(r.Body)...)
			out = append(out, allLayers(r.Shortcut)...)
		}
	}
	return out
}
