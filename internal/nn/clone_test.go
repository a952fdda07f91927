package nn_test

import (
	"strings"
	"testing"

	"gmreg/internal/nn"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// cloneTestNet builds a network exercising every layer type the models use,
// including a residual block with a projection shortcut and dropout.
func cloneTestNet(rng *tensor.RNG) *nn.Network {
	body := []nn.Layer{
		nn.NewConv2D("blk-conv1", 4, 8, 3, 2, 1, 0.1, rng),
		nn.NewBatchNorm("blk-bn1", 8),
		nn.NewReLU("blk-relu"),
		nn.NewConv2D("blk-conv2", 8, 8, 3, 1, 1, 0.1, rng),
		nn.NewBatchNorm("blk-bn2", 8),
	}
	shortcut := []nn.Layer{
		nn.NewConv2D("blk-sc-conv", 4, 8, 1, 2, 0, 0.1, rng),
		nn.NewBatchNorm("blk-sc-bn", 8),
	}
	return nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, 0.1, rng),
		nn.NewMaxPool2D("pool1", 2, 2, 0),
		nn.NewReLU("relu1"),
		nn.NewLRN("lrn1"),
		nn.NewResidual("blk", body, shortcut),
		nn.NewAvgPool2D("pool2", 2, 2, 0),
		nn.NewDropout("drop", 0.5, rng),
		nn.NewGlobalAvgPool2D("gap"),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 8, 5, 0.1, rng),
	)
}

func TestCloneArchitectureSharesNothing(t *testing.T) {
	rng := tensor.NewRNG(11)
	net := cloneTestNet(rng)
	clone := net.CloneArchitecture()

	ps, cs := net.Params(), clone.Params()
	if len(ps) != len(cs) {
		t.Fatalf("clone has %d param groups, want %d", len(cs), len(ps))
	}
	for i := range ps {
		if ps[i].Name != cs[i].Name {
			t.Fatalf("group %d name %q != %q", i, cs[i].Name, ps[i].Name)
		}
		if len(ps[i].W) != len(cs[i].W) {
			t.Fatalf("group %q has %d values, want %d", ps[i].Name, len(cs[i].W), len(ps[i].W))
		}
		if ps[i].InitStd != cs[i].InitStd || ps[i].Regularize != cs[i].Regularize {
			t.Fatalf("group %q metadata differs", ps[i].Name)
		}
		if &ps[i].W[0] == &cs[i].W[0] || &ps[i].Grad[0] == &cs[i].Grad[0] {
			t.Fatalf("group %q shares backing storage with the original", ps[i].Name)
		}
	}

	// Mutating the original must not leak into the clone.
	before := append([]float64(nil), cs[0].W...)
	for i := range ps[0].W {
		ps[0].W[i] = 42
	}
	for i := range before {
		if cs[0].W[i] != before[i] {
			t.Fatal("clone weights changed when original was mutated")
		}
	}
}

// A CloneArchitecture replica loaded from train.CaptureWeights must
// reproduce the source network's inference outputs bit for bit, including
// batch-norm running statistics that training forwards drifted from their
// init values.
func TestCloneLoadWeightsBitIdenticalInference(t *testing.T) {
	rng := tensor.NewRNG(12)
	net := cloneTestNet(rng)
	x := tensor.New(4, 3, 8, 8)
	for pass := 0; pass < 3; pass++ {
		rng.FillNormal(x.Data, 0, 1)
		net.Forward(x, true)
	}

	groups, stats := train.CaptureWeights(net)
	if len(stats) != 3 {
		t.Fatalf("captured %d batch-norm layers, want 3", len(stats))
	}
	clone := net.CloneArchitecture()
	if err := train.LoadWeights(clone, groups, stats); err != nil {
		t.Fatal(err)
	}

	rng.FillNormal(x.Data, 0, 1)
	want := net.Forward(x, false).Clone()
	got := clone.Forward(x, false)
	if !got.SameShape(want) {
		t.Fatalf("shape %v != %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("inference output differs at %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	build := func(rng *tensor.RNG) *nn.Network {
		return nn.NewNetwork(
			nn.NewDense("fc1", 4, 8, 0.3, rng),
			nn.NewReLU("relu"),
			nn.NewBatchNorm("bn", 1), // unusual but exercises non-weight groups
		)
	}
	net := build(tensor.NewRNG(6))
	m, v := net.BatchNorms()[0].Stats()
	m[0], v[0] = 0.25, 2
	groups, stats := train.CaptureWeights(net)

	// A same-architecture network with different init must take on the
	// captured values.
	net2 := build(tensor.NewRNG(7))
	if err := train.LoadWeights(net2, groups, stats); err != nil {
		t.Fatal(err)
	}
	p1, p2 := net.Params(), net2.Params()
	for i := range p1 {
		for j := range p1[i].W {
			if p1[i].W[j] != p2[i].W[j] {
				t.Fatalf("group %s dim %d differs after load", p1[i].Name, j)
			}
		}
	}
	_, stats2 := train.CaptureWeights(net2)
	for j := range stats[0].Mean {
		if stats[0].Mean[j] != stats2[0].Mean[j] || stats[0].Var[j] != stats2[0].Var[j] {
			t.Fatalf("batch-norm stats dim %d differ after load", j)
		}
	}
}

func TestLoadWeightsRejectsMismatches(t *testing.T) {
	rng := tensor.NewRNG(8)
	src := nn.NewNetwork(nn.NewDense("fc1", 4, 8, 0.3, rng), nn.NewBatchNorm("bn", 1))
	groups, stats := train.CaptureWeights(src)

	cases := []struct {
		name string
		net  *nn.Network
		want string
	}{
		{"group name", nn.NewNetwork(nn.NewDense("fc2", 4, 8, 0.3, rng), nn.NewBatchNorm("bn", 1)), "group 0"},
		{"group length", nn.NewNetwork(nn.NewDense("fc1", 4, 4, 0.3, rng), nn.NewBatchNorm("bn", 1)), "group 0"},
		{"group count", nn.NewNetwork(nn.NewDense("fc1", 4, 8, 0.3, rng), nn.NewDense("fc3", 8, 2, 0.3, rng), nn.NewBatchNorm("bn", 1)), "parameter groups"},
		{"batch-norm width", nn.NewNetwork(nn.NewDense("fc1", 4, 8, 0.3, rng), nn.NewBatchNorm("bn", 2)), "group 2"},
		{"batch-norm count", nn.NewNetwork(nn.NewDense("fc1", 4, 8, 0.3, rng), nn.NewBatchNorm("bn", 1), nn.NewBatchNorm("bn3", 1)), "parameter groups"},
	}
	for _, c := range cases {
		err := train.LoadWeights(c.net, groups, stats)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

func TestLoadWeightsRejectsMissingStats(t *testing.T) {
	rng := tensor.NewRNG(13)
	src := nn.NewNetwork(nn.NewDense("fc", 4, 2, 0.1, rng), nn.NewBatchNorm("bn", 1))
	groups, stats := train.CaptureWeights(src)
	// A network with batch norm needs running stats the records lack.
	dst := nn.NewNetwork(nn.NewDense("fc", 4, 2, 0.1, rng), nn.NewBatchNorm("bn", 1))
	if err := train.LoadWeights(dst, groups, nil); err == nil || !strings.Contains(err.Error(), "batch-norm layers") {
		t.Fatalf("missing stats: got %v", err)
	}
	for name, bad := range map[string]train.StatState{
		"stats name":   {Name: "bn2", Mean: stats[0].Mean, Var: stats[0].Var},
		"stats length": {Name: "bn", Mean: stats[0].Mean},
	} {
		if err := train.LoadWeights(dst, groups, []train.StatState{bad}); err == nil || !strings.Contains(err.Error(), "batch-norm 0") {
			t.Errorf("%s: got %v", name, err)
		}
	}
}

type fakeLayer struct{}

func (fakeLayer) Name() string                                    { return "fake" }
func (fakeLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (fakeLayer) Backward(dy *tensor.Tensor) *tensor.Tensor       { return dy }
func (fakeLayer) Params() []*nn.Param                             { return nil }

func TestCloneArchitectureRejectsUnknownLayer(t *testing.T) {
	net := nn.NewNetwork(fakeLayer{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown layer type")
		}
	}()
	net.CloneArchitecture()
}

// Regression: Residual.Forward reuses its output buffer across calls; masked
// (≤0) positions must be written as zero, not left holding the previous
// batch's activations.
func TestResidualMaskedOutputsAreZeroOnReusedBuffer(t *testing.T) {
	r := nn.NewResidual("blk", nil, nil)
	x := tensor.New(1, 1, 2, 2)
	// First pass: all positive, fills yBuf with positives.
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	r.Forward(x, true)
	// Second pass: all negative; every output must be exactly zero.
	for i := range x.Data {
		x.Data[i] = -1
	}
	y := r.Forward(x, true)
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("masked output %d is %v, want 0 (stale buffer leak)", i, v)
		}
	}
}
