package nn

import (
	"math"

	"gmreg/internal/tensor"
)

// BatchNorm is spatial batch normalization over NCHW batches: each channel is
// standardized with the minibatch mean/variance during training (running
// averages at inference) and then scaled and shifted by learnable γ and β.
// Following common practice, γ and β are not regularized.
type BatchNorm struct {
	name     string
	channels int
	Eps      float64
	Momentum float64

	gamma *Param
	beta  *Param

	runningMean []float64
	runningVar  []float64

	// Caches for Backward.
	x       *tensor.Tensor
	xhat    []float64
	mean    []float64
	invStd  []float64
	inShape []int

	yBuf, dxBuf *tensor.Tensor // reused across steps
}

// NewBatchNorm builds a batch-normalization layer over the given channel
// count. γ starts at 1 and β at 0.
func NewBatchNorm(name string, channels int) *BatchNorm {
	b := &BatchNorm{
		name:        name,
		channels:    channels,
		Eps:         1e-5,
		Momentum:    0.9,
		gamma:       newParam(name+"/gamma", channels, 0, false),
		beta:        newParam(name+"/beta", channels, 0, false),
		runningMean: make([]float64, channels),
		runningVar:  make([]float64, channels),
	}
	for i := range b.gamma.W {
		b.gamma.W[i] = 1
		b.runningVar[i] = 1
	}
	return b
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta} }

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(b, x, 4)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != b.channels {
		panic("nn: " + b.name + ": channel mismatch")
	}
	b.inShape = append(b.inShape[:0], x.Shape...)
	plane := h * w
	count := float64(n * plane)
	y := ensure(&b.yBuf, x.Shape...)

	if train {
		b.x = x
		if cap(b.xhat) < x.Len() {
			b.xhat = make([]float64, x.Len())
		}
		b.xhat = b.xhat[:x.Len()]
		if b.mean == nil {
			b.mean = make([]float64, c)
			b.invStd = make([]float64, c)
		}
		for ch := 0; ch < c; ch++ {
			var sum, sq float64
			for s := 0; s < n; s++ {
				base := (s*c + ch) * plane
				for i := 0; i < plane; i++ {
					v := x.Data[base+i]
					sum += v
					sq += v * v
				}
			}
			mean := sum / count
			variance := sq/count - mean*mean
			if variance < 0 {
				variance = 0
			}
			b.mean[ch] = mean
			b.invStd[ch] = 1 / math.Sqrt(variance+b.Eps)
			b.runningMean[ch] = b.Momentum*b.runningMean[ch] + (1-b.Momentum)*mean
			b.runningVar[ch] = b.Momentum*b.runningVar[ch] + (1-b.Momentum)*variance
			g, bt := b.gamma.W[ch], b.beta.W[ch]
			for s := 0; s < n; s++ {
				base := (s*c + ch) * plane
				for i := 0; i < plane; i++ {
					xh := (x.Data[base+i] - mean) * b.invStd[ch]
					b.xhat[base+i] = xh
					y.Data[base+i] = g*xh + bt
				}
			}
		}
		return y
	}

	for ch := 0; ch < c; ch++ {
		invStd := 1 / math.Sqrt(b.runningVar[ch]+b.Eps)
		mean := b.runningMean[ch]
		g, bt := b.gamma.W[ch], b.beta.W[ch]
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			for i := 0; i < plane; i++ {
				y.Data[base+i] = g*(x.Data[base+i]-mean)*invStd + bt
			}
		}
	}
	return y
}

// Backward implements Layer using the standard batch-norm gradient:
//
//	dx = (γ·invStd/m)·(m·dy_hat − Σdy_hat − x̂·Σ(dy_hat·x̂))
//
// where dy_hat = dy (per element, before γ) and m = N·H·W per channel.
func (b *BatchNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c := b.inShape[0], b.inShape[1]
	plane := b.inShape[2] * b.inShape[3]
	m := float64(n * plane)
	dx := ensure(&b.dxBuf, b.inShape...)
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			for i := 0; i < plane; i++ {
				d := dy.Data[base+i]
				sumDy += d
				sumDyXhat += d * b.xhat[base+i]
			}
		}
		b.gamma.Grad[ch] += sumDyXhat
		b.beta.Grad[ch] += sumDy
		g := b.gamma.W[ch]
		invStd := b.invStd[ch]
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			for i := 0; i < plane; i++ {
				d := dy.Data[base+i]
				xh := b.xhat[base+i]
				dx.Data[base+i] = g * invStd / m * (m*d - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

// Stats returns the live running-statistics slices (no copies). The
// data-parallel trainer uses it to average replica statistics into the
// authoritative copy and broadcast them back each global step; callers
// mutating the slices inherit the layer's single-goroutine contract.
func (b *BatchNorm) Stats() (mean, variance []float64) {
	return b.runningMean, b.runningVar
}
