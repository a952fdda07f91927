package nn

import (
	"math"
	"testing"

	"gmreg/internal/tensor"
)

// gradCheck validates a layer's Backward against central differences of the
// scalar loss L(x) = Σ_i r_i · Forward(x)_i, for both the input gradient and
// every parameter gradient.
func gradCheck(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(99)

	forwardLoss := func() (float64, []float64) {
		y := layer.Forward(x, true)
		r := make([]float64, y.Len())
		rng2 := tensor.NewRNG(123) // fixed projection
		rng2.FillNormal(r, 0, 1)
		return tensor.Dot(y.Data, r), r
	}
	loss0, r := forwardLoss()
	_ = loss0
	// Analytic gradients.
	for _, p := range layer.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
	y := layer.Forward(x, true)
	dy := tensor.FromSlice(append([]float64(nil), r...), y.Shape...)
	dx := layer.Backward(dy)

	lossAt := func() float64 {
		y := layer.Forward(x, true)
		return tensor.Dot(y.Data, r)
	}

	const h = 1e-5
	// Input gradient: probe a sample of dimensions.
	probes := x.Len()
	if probes > 40 {
		probes = 40
	}
	for p := 0; p < probes; p++ {
		i := rng.Intn(x.Len())
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := lossAt()
		x.Data[i] = orig - h
		lm := lossAt()
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad dim %d: analytic %v vs numeric %v",
				layer.Name(), i, dx.Data[i], num)
		}
	}
	// Parameter gradients.
	for _, par := range layer.Params() {
		probes := len(par.W)
		if probes > 40 {
			probes = 40
		}
		for p := 0; p < probes; p++ {
			i := rng.Intn(len(par.W))
			orig := par.W[i]
			par.W[i] = orig + h
			lp := lossAt()
			par.W[i] = orig - h
			lm := lossAt()
			par.W[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-par.Grad[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: param %s dim %d: analytic %v vs numeric %v",
					layer.Name(), par.Name, i, par.Grad[i], num)
			}
		}
	}
}

func randTensor(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	rng.FillNormal(x.Data, 0, 1)
	return x
}

func TestDenseForwardKnown(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense("fc", 2, 3, 0.1, rng)
	copy(d.weight.W, []float64{1, 2, 3, 4, 5, 6}) // 3×2
	copy(d.bias.W, []float64{0.5, -0.5, 1})
	x := tensor.FromSlice([]float64{1, 1, 2, -1}, 2, 2)
	y := d.Forward(x, true)
	want := []float64{3.5, 6.5, 12, 0.5, 1.5, 5} // x·Wᵀ + b
	for i, v := range want {
		if math.Abs(y.Data[i]-v) > 1e-12 {
			t.Fatalf("dense out[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	gradCheck(t, NewDense("fc", 6, 4, 0.2, rng), randTensor(rng, 3, 6), 1e-5)
}

func TestConvForwardShape(t *testing.T) {
	rng := tensor.NewRNG(3)
	c := NewConv2D("conv", 3, 8, 5, 1, 2, 0.1, rng)
	y := c.Forward(randTensor(rng, 2, 3, 16, 16), true)
	want := []int{2, 8, 16, 16}
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("conv output shape %v, want %v", y.Shape, want)
		}
	}
}

func TestConvForwardKnown(t *testing.T) {
	rng := tensor.NewRNG(4)
	// 1-channel 3×3 input, single 2×2 sum filter, stride 1, no pad.
	c := NewConv2D("conv", 1, 1, 2, 1, 0, 0.1, rng)
	for i := range c.weight.W {
		c.weight.W[i] = 1
	}
	c.bias.W[0] = 0.5
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	y := c.Forward(x, true)
	want := []float64{12.5, 16.5, 24.5, 28.5}
	for i, v := range want {
		if math.Abs(y.Data[i]-v) > 1e-12 {
			t.Fatalf("conv out[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestConvGradCheck(t *testing.T) {
	rng := tensor.NewRNG(5)
	gradCheck(t, NewConv2D("conv", 2, 3, 3, 1, 1, 0.2, rng), randTensor(rng, 2, 2, 5, 5), 1e-4)
}

func TestConvStridedGradCheck(t *testing.T) {
	rng := tensor.NewRNG(6)
	gradCheck(t, NewConv2D("conv", 2, 4, 3, 2, 1, 0.2, rng), randTensor(rng, 2, 2, 8, 8), 1e-4)
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2, 0)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("maxpool out[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2, 0)
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	p.Forward(x, true)
	dy := tensor.FromSlice([]float64{5}, 1, 1, 1, 1)
	dx := p.Backward(dy)
	want := []float64{0, 0, 0, 5}
	for i, v := range want {
		if dx.Data[i] != v {
			t.Fatalf("maxpool dx = %v, want %v", dx.Data, want)
		}
	}
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := tensor.NewRNG(7)
	gradCheck(t, NewMaxPool2D("pool", 3, 2, 1), randTensor(rng, 2, 2, 6, 6), 1e-5)
}

func TestAvgPoolForwardKnown(t *testing.T) {
	p := NewAvgPool2D("pool", 2, 2, 0)
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	y := p.Forward(x, true)
	if y.Data[0] != 2.5 {
		t.Fatalf("avgpool = %v, want 2.5", y.Data[0])
	}
}

func TestAvgPoolGradCheck(t *testing.T) {
	rng := tensor.NewRNG(8)
	gradCheck(t, NewAvgPool2D("pool", 3, 2, 1), randTensor(rng, 2, 2, 6, 6), 1e-5)
}

func TestGlobalAvgPool(t *testing.T) {
	rng := tensor.NewRNG(9)
	p := NewGlobalAvgPool2D("gap")
	x := randTensor(rng, 2, 3, 4, 4)
	y := p.Forward(x, true)
	if y.Shape[2] != 1 || y.Shape[3] != 1 {
		t.Fatalf("global avg pool shape %v, want N×C×1×1", y.Shape)
	}
	// Channel 0 of sample 0 must equal the plane mean.
	want := tensor.Mean(x.Data[:16])
	if math.Abs(y.Data[0]-want) > 1e-12 {
		t.Fatalf("gap = %v, want %v", y.Data[0], want)
	}
	gradCheck(t, NewGlobalAvgPool2D("gap"), randTensor(rng, 2, 3, 4, 4), 1e-5)
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.FromSlice([]float64{-1, 0, 2}, 1, 3)
	y := r.Forward(x, true)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("relu out = %v", y.Data)
	}
	dy := tensor.FromSlice([]float64{10, 10, 10}, 1, 3)
	dx := r.Backward(dy)
	if dx.Data[0] != 0 || dx.Data[1] != 0 || dx.Data[2] != 10 {
		t.Fatalf("relu dx = %v", dx.Data)
	}
}

func TestLRNGradCheck(t *testing.T) {
	rng := tensor.NewRNG(10)
	gradCheck(t, NewLRN("lrn"), randTensor(rng, 2, 6, 3, 3), 1e-4)
}

func TestLRNNearIdentityForSmallActivations(t *testing.T) {
	// With AlexNet constants and small activations the denominator ≈ 1.
	l := NewLRN("lrn")
	x := tensor.New(1, 4, 2, 2)
	for i := range x.Data {
		x.Data[i] = 0.01
	}
	y := l.Forward(x, true)
	for i := range y.Data {
		if math.Abs(y.Data[i]-x.Data[i]) > 1e-5 {
			t.Fatalf("LRN should be near identity for tiny inputs: %v vs %v",
				y.Data[i], x.Data[i])
		}
	}
}

func TestBatchNormTrainStandardizes(t *testing.T) {
	rng := tensor.NewRNG(11)
	b := NewBatchNorm("bn", 3)
	x := randTensor(rng, 8, 3, 4, 4)
	for i := range x.Data {
		x.Data[i] = x.Data[i]*3 + 5 // non-trivial mean/var
	}
	y := b.Forward(x, true)
	// Per channel the output must be ~zero-mean unit-variance (γ=1, β=0).
	plane := 16
	for ch := 0; ch < 3; ch++ {
		var vals []float64
		for s := 0; s < 8; s++ {
			base := (s*3 + ch) * plane
			vals = append(vals, y.Data[base:base+plane]...)
		}
		if m := tensor.Mean(vals); math.Abs(m) > 1e-9 {
			t.Fatalf("BN channel %d mean %v, want 0", ch, m)
		}
		if v := tensor.Variance(vals); math.Abs(v-1) > 1e-2 {
			t.Fatalf("BN channel %d variance %v, want 1", ch, v)
		}
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := tensor.NewRNG(12)
	gradCheck(t, NewBatchNorm("bn", 3), randTensor(rng, 4, 3, 3, 3), 1e-4)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(13)
	b := NewBatchNorm("bn", 2)
	// Train on shifted data for several steps so the running stats adapt.
	for i := 0; i < 50; i++ {
		x := randTensor(rng, 8, 2, 2, 2)
		for j := range x.Data {
			x.Data[j] = x.Data[j]*2 + 3
		}
		b.Forward(x, true)
	}
	mean, variance := b.Stats()
	for ch := 0; ch < 2; ch++ {
		if math.Abs(mean[ch]-3) > 0.5 {
			t.Fatalf("running mean[%d] = %v, want ~3", ch, mean[ch])
		}
		if math.Abs(variance[ch]-4) > 1.0 {
			t.Fatalf("running var[%d] = %v, want ~4", ch, variance[ch])
		}
	}
	// Inference output on data from the same distribution is standardized.
	x := randTensor(rng, 64, 2, 2, 2)
	for j := range x.Data {
		x.Data[j] = x.Data[j]*2 + 3
	}
	y := b.Forward(x, false)
	if m := tensor.Mean(y.Data); math.Abs(m) > 0.2 {
		t.Fatalf("eval-mode output mean %v, want ~0", m)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(14)
	f := NewFlatten("flat")
	x := randTensor(rng, 2, 3, 4, 4)
	y := f.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 48 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dy := randTensor(rng, 2, 48)
	dx := f.Backward(dy)
	if dx.Rank() != 4 || dx.Shape[3] != 4 {
		t.Fatalf("flatten backward shape %v", dx.Shape)
	}
}

func TestResidualIdentityGradCheck(t *testing.T) {
	rng := tensor.NewRNG(15)
	body := []Layer{
		NewConv2D("c1", 2, 2, 3, 1, 1, 0.2, rng),
		NewBatchNorm("b1", 2),
		NewReLU("r1"),
		NewConv2D("c2", 2, 2, 3, 1, 1, 0.2, rng),
		NewBatchNorm("b2", 2),
	}
	res := NewResidual("res", body, nil)
	gradCheck(t, res, randTensor(rng, 2, 2, 4, 4), 1e-4)
}

func TestResidualProjectionGradCheck(t *testing.T) {
	rng := tensor.NewRNG(16)
	body := []Layer{
		NewConv2D("c1", 2, 4, 3, 2, 1, 0.2, rng),
		NewReLU("r1"),
		NewConv2D("c2", 4, 4, 3, 1, 1, 0.2, rng),
	}
	short := []Layer{NewConv2D("proj", 2, 4, 3, 2, 1, 0.2, rng)}
	res := NewResidual("res", body, short)
	gradCheck(t, res, randTensor(rng, 2, 2, 6, 6), 1e-4)
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(17)
	body := []Layer{NewConv2D("c1", 2, 4, 3, 2, 1, 0.2, rng)}
	res := NewResidual("res", body, nil) // identity skip cannot match
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	res.Forward(randTensor(rng, 1, 2, 6, 6), true)
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0, 0, 0}, 2, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want ln2", loss)
	}
	// grad = (softmax − onehot)/N = ±0.25.
	want := []float64{-0.25, 0.25, 0.25, -0.25}
	for i, v := range want {
		if math.Abs(grad.Data[i]-v) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", i, grad.Data[i], v)
		}
	}
}

func TestSoftmaxCrossEntropyGradCheck(t *testing.T) {
	rng := tensor.NewRNG(18)
	logits := randTensor(rng, 4, 5)
	labels := []int{0, 3, 2, 4}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const h = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("softmax grad dim %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyPanics(t *testing.T) {
	logits := tensor.New(2, 3)
	assertPanics(t, func() { SoftmaxCrossEntropy(logits, []int{0}) })
	assertPanics(t, func() { SoftmaxCrossEntropy(logits, []int{0, 7}) })
	assertPanics(t, func() { SoftmaxCrossEntropy(tensor.New(2, 3, 1), []int{0, 1}) })
}

func TestPredict(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 3, 2, 9, 0, 0}, 2, 3)
	got := Predict(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Predict = %v, want [1 0]", got)
	}
}

func TestNetworkStacksLayers(t *testing.T) {
	rng := tensor.NewRNG(19)
	net := NewNetwork(
		NewDense("fc1", 4, 8, 0.3, rng),
		NewReLU("relu1"),
		NewDense("fc2", 8, 2, 0.3, rng),
	)
	if got := net.NumParams(false); got != 4*8+8+8*2+2 {
		t.Fatalf("NumParams = %d", got)
	}
	if got := net.NumParams(true); got != 4*8+8*2 {
		t.Fatalf("NumParams(regularized) = %d", got)
	}
	x := randTensor(rng, 3, 4)
	y := net.Forward(x, true)
	if y.Shape[0] != 3 || y.Shape[1] != 2 {
		t.Fatalf("network output shape %v", y.Shape)
	}
	loss, grad := SoftmaxCrossEntropy(y, []int{0, 1, 0})
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	net.ZeroGrads()
	net.Backward(grad)
	var nonZero bool
	for _, p := range net.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				nonZero = true
			}
		}
	}
	if !nonZero {
		t.Fatal("backward produced all-zero gradients")
	}
	net.ZeroGrads()
	for _, p := range net.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("ZeroGrads left residue")
			}
		}
	}
}

func TestHeStd(t *testing.T) {
	if got := HeStd(8); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("HeStd(8) = %v, want 0.5", got)
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
