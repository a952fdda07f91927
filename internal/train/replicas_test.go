package train

import (
	"math"
	"testing"

	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/nn"
	"gmreg/internal/tensor"
)

// The in-process replicas' whole value proposition is exact numerics:
// these tests compare weights with ==, not tolerances. A wide replica pool
// is substituted so replicas really run concurrently even on one CPU, and
// the partition grain is pinned so kernel chunking is identical across
// machines.

func netTestSetup(t *testing.T) *data.ImageSet {
	t.Helper()
	oldPool := replicaPool
	replicaPool = &tensor.WorkerPool{Size: 4}
	oldGrain := tensor.PartitionGrain()
	tensor.SetPartitionGrain(4)
	t.Cleanup(func() {
		replicaPool = oldPool
		tensor.SetPartitionGrain(oldGrain)
	})
	spec := data.DefaultCIFAR(48, 16)
	spec.Size = 8
	spec.Classes = 4
	trainSet, _ := data.GenerateCIFAR(spec, 7)
	return trainSet
}

// tinyConv is a small Alex-shaped network: conv/pool/relu/dense, no batch
// norm, no dropout — the architecture class with the exact-equality
// guarantee.
func tinyConv(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	return nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, 0.1, rng),
		nn.NewMaxPool2D("pool1", 2, 2, 0),
		nn.NewReLU("relu1"),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 4*4*4, 4, 0.1, rng),
	)
}

// tinyBNConv adds batch norm for the ghost-batch semantics tests.
func tinyBNConv(seed uint64) *nn.Network {
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

func netCfg(replicas int, prefetch bool) SGDConfig {
	return SGDConfig{
		Replicas:     replicas,
		Prefetch:     prefetch,
		LearningRate: 0.05,
		Momentum:     0.9,
		Epochs:       3,
		BatchSize:    16,
		Seed:         9,
		ShardSize:    4, // pinned: R-independent canonical partition
	}
}

// seqCfg is cfg run on the network itself, without prefetch.
func seqCfg(cfg SGDConfig) SGDConfig {
	cfg.Replicas, cfg.Prefetch = 0, false
	return cfg
}

func weightsOf(net *nn.Network) [][]float64 {
	var ws [][]float64
	for _, p := range net.Params() {
		ws = append(ws, append([]float64(nil), p.W...))
	}
	return ws
}

func requireSameWeights(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d parameter groups", label, len(a), len(b))
	}
	for g := range a {
		for j := range a[g] {
			if a[g][j] != b[g][j] {
				t.Fatalf("%s: group %d element %d: %v != %v", label, g, j, a[g][j], b[g][j])
			}
		}
	}
}

// TestNetworkBitIdenticalToSequential is the tentpole guarantee: at a
// pinned ShardSize, Network with R ∈ {1, 2, 4} replicas (prefetch on and
// off) produces exactly the weights and loss history of the sequential
// run.
func TestNetworkBitIdenticalToSequential(t *testing.T) {
	set := netTestSetup(t)
	cfg := netCfg(1, false)

	seqNet := tinyConv(21)
	seqRes, err := Network(seqNet, set, seqCfg(cfg), gmFactory(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := weightsOf(seqNet)

	for _, replicas := range []int{1, 2, 4} {
		for _, prefetch := range []bool{false, true} {
			c := netCfg(replicas, prefetch)
			net := tinyConv(21)
			res, err := Network(net, set, c, gmFactory(nil))
			if err != nil {
				t.Fatal(err)
			}
			label := "R=" + string(rune('0'+replicas))
			requireSameWeights(t, label, weightsOf(net), want)
			if len(res.History.EpochLoss) != len(seqRes.History.EpochLoss) {
				t.Fatalf("%s: history length %d vs %d", label, len(res.History.EpochLoss), len(seqRes.History.EpochLoss))
			}
			for e := range res.History.EpochLoss {
				if res.History.EpochLoss[e] != seqRes.History.EpochLoss[e] {
					t.Fatalf("%s: epoch %d loss %v != %v", label, e, res.History.EpochLoss[e], seqRes.History.EpochLoss[e])
				}
			}
		}
	}
}

// TestNetworkRepeatedRunsBitIdentical is the seeded determinism guard
// against prefetch/reduction reordering: repeated runs — sequential and at
// each replica count — must reproduce the final weights exactly.
func TestNetworkRepeatedRunsBitIdentical(t *testing.T) {
	set := netTestSetup(t)

	seq1, seq2 := tinyConv(4), tinyConv(4)
	if _, err := Network(seq1, set, seqCfg(netCfg(1, false)), gmFactory(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := Network(seq2, set, seqCfg(netCfg(1, false)), gmFactory(nil)); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, "sequential rerun", weightsOf(seq1), weightsOf(seq2))

	for _, replicas := range []int{1, 2, 4} {
		c := netCfg(replicas, true)
		n1, n2 := tinyConv(4), tinyConv(4)
		if _, err := Network(n1, set, c, gmFactory(nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := Network(n2, set, c, gmFactory(nil)); err != nil {
			t.Fatal(err)
		}
		requireSameWeights(t, "replica rerun", weightsOf(n1), weightsOf(n2))
	}
}

// TestNetworkGhostBatchNorm documents the batch-norm semantics: training
// normalizes per micro-shard, so gradients — and therefore weights — still
// match the sequential trainer exactly at equal ShardSize, and repeated
// runs are deterministic; only the running statistics are combined
// differently (replica-averaged vs one sequential EMA).
func TestNetworkGhostBatchNorm(t *testing.T) {
	set := netTestSetup(t)
	cfg := netCfg(2, false)

	seqNet := tinyBNConv(33)
	if _, err := Network(seqNet, set, seqCfg(cfg), gmFactory(nil)); err != nil {
		t.Fatal(err)
	}
	d1, d2 := tinyBNConv(33), tinyBNConv(33)
	if _, err := Network(d1, set, cfg, gmFactory(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := Network(d2, set, cfg, gmFactory(nil)); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, "BN weights vs sequential", weightsOf(d1), weightsOf(seqNet))
	requireSameWeights(t, "BN rerun", weightsOf(d1), weightsOf(d2))

	m1, v1 := d1.BatchNorms()[0].Stats()
	m2, v2 := d2.BatchNorms()[0].Stats()
	for c := range m1 {
		if m1[c] != m2[c] || v1[c] != v2[c] {
			t.Fatalf("running stats not deterministic at channel %d", c)
		}
	}
}

// TestNetworkDefaultShardSize checks the ceil(batch/R) default and that
// training still runs (and is deterministic) without a pinned ShardSize.
func TestNetworkDefaultShardSize(t *testing.T) {
	set := netTestSetup(t)
	cfg := netCfg(3, false)
	cfg.ShardSize = 0
	n1, n2 := tinyConv(2), tinyConv(2)
	if _, err := Network(n1, set, cfg, gmFactory(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := Network(n2, set, cfg, gmFactory(nil)); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, "default shard size", weightsOf(n1), weightsOf(n2))
}

// TestReplicaNetworkErrors covers the validation paths.
func TestReplicaNetworkErrors(t *testing.T) {
	set := netTestSetup(t)
	if _, err := Network(tinyConv(1), set, netCfg(-1, false), gmFactory(nil)); err == nil {
		t.Error("negative replica count accepted")
	}
	bad := netCfg(2, false)
	bad.BarzilaiBorwein = true
	if _, err := Network(tinyConv(1), set, bad, gmFactory(nil)); err == nil {
		t.Error("BB accepted")
	}
	empty := &data.ImageSet{C: 3, H: 8, W: 8, Classes: 4}
	if _, err := Network(tinyConv(1), empty, netCfg(1, false), gmFactory(nil)); err == nil {
		t.Error("empty training set accepted")
	}
}

// The server-side GM must step once per global iteration regardless of the
// replica count (the regularizer is not sharded).
func TestGMStepsOncePerGlobalIteration(t *testing.T) {
	set := netTestSetup(t)
	cfg := netCfg(4, false)
	res, err := Network(tinyConv(5), set, cfg, gmFactory(nil))
	if err != nil {
		t.Fatal(err)
	}
	nBatches := (set.N + cfg.BatchSize - 1) / cfg.BatchSize
	want := cfg.Epochs * nBatches // default schedule: every iteration
	for name, r := range res.Regs {
		e, _ := r.(*core.GM).Steps()
		if e != want {
			t.Fatalf("%s: GM ran %d E-steps, want %d (one per global step)", name, e, want)
		}
	}
}

// More replicas than rows in the ragged last batch: the idle replicas must
// be harmless.
func TestEmptyShards(t *testing.T) {
	set := netTestSetup(t)
	cfg := netCfg(4, false)
	cfg.BatchSize = 23 // batches of 23, 23 and 2 rows
	net := tinyConv(6)
	res, err := Network(net, set, cfg, gmFactory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History.EpochLoss) != cfg.Epochs {
		t.Fatal("training did not complete")
	}
	for _, w := range weightsOf(net) {
		for _, v := range w {
			if math.IsNaN(v) {
				t.Fatal("NaN weights with empty shards")
			}
		}
	}
	seqNet := tinyConv(6)
	if _, err := Network(seqNet, set, seqCfg(cfg), gmFactory(nil)); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, "ragged batch vs sequential", weightsOf(net), weightsOf(seqNet))
}
