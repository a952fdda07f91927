package nn

import (
	"math"
	"testing"

	"gmreg/internal/tensor"
)

func TestDropoutInferenceIsIdentity(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDropout("drop", 0.5, rng)
	x := randTensor(rng, 4, 10)
	y := d.Forward(x, false)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("inference-mode dropout must be the identity")
		}
	}
	// Backward after an inference pass is also the identity.
	dy := randTensor(rng, 4, 10)
	dx := d.Backward(dy)
	for i := range dy.Data {
		if dx.Data[i] != dy.Data[i] {
			t.Fatal("inference-mode dropout backward must be the identity")
		}
	}
}

func TestDropoutTrainDropsAndRescales(t *testing.T) {
	rng := tensor.NewRNG(2)
	const rate = 0.4
	d := NewDropout("drop", rate, rng)
	x := tensor.New(1, 10000)
	x.Fill(1)
	y := d.Forward(x, true)
	var dropped int
	keep := 1 / (1 - rate)
	for _, v := range y.Data {
		switch v {
		case 0:
			dropped++
		case keep:
		default:
			t.Fatalf("dropout output %v, want 0 or %v", v, keep)
		}
	}
	frac := float64(dropped) / float64(x.Len())
	if math.Abs(frac-rate) > 0.03 {
		t.Fatalf("dropped fraction %v, want ~%v", frac, rate)
	}
	// Expectation preserved: mean output ≈ mean input.
	if m := tensor.Mean(y.Data); math.Abs(m-1) > 0.05 {
		t.Fatalf("dropout mean %v, want ~1 (inverted scaling)", m)
	}
}

func TestDropoutBackwardUsesSameMask(t *testing.T) {
	rng := tensor.NewRNG(3)
	d := NewDropout("drop", 0.5, rng)
	x := tensor.New(1, 100)
	x.Fill(1)
	y := d.Forward(x, true)
	dy := tensor.New(1, 100)
	dy.Fill(1)
	dx := d.Backward(dy)
	for i := range y.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestDropoutZeroRatePassthrough(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := NewDropout("drop", 0, rng)
	x := randTensor(rng, 2, 5)
	y := d.Forward(x, true)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("rate-0 dropout must be a passthrough")
		}
	}
}

func TestDropoutRejectsBadRate(t *testing.T) {
	rng := tensor.NewRNG(5)
	assertPanics(t, func() { NewDropout("drop", 1, rng) })
	assertPanics(t, func() { NewDropout("drop", -0.1, rng) })
}

func TestDropoutInNetworkTrains(t *testing.T) {
	rng := tensor.NewRNG(9)
	net := NewNetwork(
		NewDense("fc1", 6, 16, 0.3, rng),
		NewReLU("relu"),
		NewDropout("drop", 0.3, rng),
		NewDense("fc2", 16, 2, 0.3, rng),
	)
	x := randTensor(rng, 8, 6)
	logits := net.Forward(x, true)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1, 0, 1, 0, 1, 0, 1})
	if math.IsNaN(loss) {
		t.Fatal("NaN loss through dropout")
	}
	net.ZeroGrads()
	net.Backward(grad)
}
