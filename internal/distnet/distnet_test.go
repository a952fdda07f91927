package distnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// The distributed trainer's whole value proposition is exact numerics, so
// these tests compare weights with ==, not tolerances: coordinator + N
// trainer processes must reproduce the sequential trainer and the
// in-process data-parallel trainer bit for bit, through a real TCP stack.
// The in-process tests here run trainers as goroutines speaking the real
// protocol over loopback; multiprocess_test.go re-runs the flagship cases
// with genuine OS processes and kill -9.

func gmFactory(m int, initStd float64) reg.Regularizer {
	return core.MustNewGM(m, core.DefaultConfig(initStd))
}

func pinGrain(t *testing.T) {
	t.Helper()
	oldGrain := tensor.PartitionGrain()
	tensor.SetPartitionGrain(4)
	t.Cleanup(func() { tensor.SetPartitionGrain(oldGrain) })
}

// tabularJob is a small horse-colic slice run through the mlp family — the
// cheapest architecture with the full network training path.
func tabularJob(t *testing.T) (*data.ImageSet, models.Spec) {
	t.Helper()
	task, err := data.LoadUCI("horse-colic", 5)
	if err != nil {
		t.Fatal(err)
	}
	small := &data.Task{Name: task.Name, X: task.X[:64], Y: task.Y[:64]}
	set := data.TabularImageSet(small)
	return set, models.Spec{Family: "mlp", In: set.C, Hidden: 8, Classes: set.Classes}
}

func testSGD(epochs int) train.SGDConfig {
	return train.SGDConfig{
		LearningRate: 0.05,
		Momentum:     0.9,
		Epochs:       epochs,
		BatchSize:    16,
		Seed:         9,
		ShardSize:    4, // pinned: trainer-count-independent canonical partition
	}
}

// replicated is sgd trained by r in-process replicas.
func replicated(sgd train.SGDConfig, r int) train.SGDConfig {
	sgd.Replicas = r
	return sgd
}

func weightsOf(n *nn.Network) [][]float64 {
	var ws [][]float64
	for _, p := range n.Params() {
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

// runJob drives one coordinator over loopback TCP with the given trainer
// configurations running as goroutines (Addr is filled in). extraTrainers,
// when non-nil, runs once the address is known — the hook the elastic tests
// use to spawn leavers, diers, and late joiners.
func runJob(t *testing.T, set *data.ImageSet, spec models.Spec, sgd train.SGDConfig,
	trainers []TrainerConfig, minTrainers int, tweak func(*Config), extraTrainers func(addr string)) (*nn.Network, *train.NetworkResult, *RunStats) {
	t.Helper()
	stats := &RunStats{}
	addrCh := make(chan net.Addr, 1)
	cfg := Config{
		Addr:             "127.0.0.1:0",
		Spec:             spec,
		MinTrainers:      minTrainers,
		SGD:              sgd,
		HeartbeatTimeout: 20 * time.Second,
		JoinWait:         20 * time.Second,
		Stats:            stats,
		OnListen:         func(a net.Addr) { addrCh <- a },
	}
	if tweak != nil {
		tweak(&cfg)
	}
	netw, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *train.NetworkResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Coordinate(netw, set, cfg, gmFactory)
		done <- outcome{res, err}
	}()
	addr := (<-addrCh).String()
	for i := range trainers {
		tc := trainers[i]
		tc.Addr = addr
		tc.Name = fmt.Sprintf("t%d", i)
		go RunTrainer(tc)
	}
	if extraTrainers != nil {
		go extraTrainers(addr)
	}
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return netw, o.res, stats
	case <-time.After(120 * time.Second):
		t.Fatal("coordinator did not finish")
		return nil, nil, nil
	}
}

// TestCoordinateBitIdenticalToSequentialAndDist is the tentpole guarantee:
// at a pinned ShardSize, a coordinator with R ∈ {1, 2, 4} trainer processes
// produces exactly the weights and loss history of the sequential
// train.Network and of train.Network with in-process replicas.
func TestCoordinateBitIdenticalToSequentialAndDist(t *testing.T) {
	pinGrain(t)
	set, spec := tabularJob(t)
	sgd := testSGD(3)

	seqNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := train.Network(seqNet, set, sgd, gmFactory)
	if err != nil {
		t.Fatal(err)
	}
	want := weightsOf(seqNet)

	distNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(distNet, set, replicated(sgd, 2), gmFactory); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, "in-process R=2", weightsOf(distNet), want)

	for _, R := range []int{1, 2, 4} {
		label := fmt.Sprintf("distnet R=%d", R)
		netw, res, stats := runJob(t, set, spec, sgd, make([]TrainerConfig, R), R, nil, nil)
		requireSameWeights(t, label, weightsOf(netw), want)
		if len(res.History.EpochLoss) != len(seqRes.History.EpochLoss) {
			t.Fatalf("%s: history length %d vs %d", label,
				len(res.History.EpochLoss), len(seqRes.History.EpochLoss))
		}
		for e := range res.History.EpochLoss {
			if res.History.EpochLoss[e] != seqRes.History.EpochLoss[e] {
				t.Fatalf("%s: epoch %d loss %v != %v", label, e,
					res.History.EpochLoss[e], seqRes.History.EpochLoss[e])
			}
		}
		if stats.Joins != R || stats.Deaths != 0 || stats.StepRedos != 0 {
			t.Fatalf("%s: unexpected membership churn: %+v", label, stats)
		}
		if stats.FramesIn == 0 || stats.FramesOut == 0 || stats.BytesIn == 0 || stats.BytesOut == 0 {
			t.Fatalf("%s: traffic counters empty: %+v", label, stats)
		}
	}
}

// TestCoordinateGhostBatchNormMatchesDist runs a batch-norm architecture
// (resnet) and checks weights AND running statistics match in-process
// replicas at the same shard size and width — the ghost-batch-norm equivalence at
// fixed membership.
func TestCoordinateGhostBatchNormMatchesDist(t *testing.T) {
	pinGrain(t)
	cspec := data.CIFARSpec{Train: 16, Test: 4, Classes: 10, Size: 4, Channels: 1,
		Signal: 0.9, Noise: 1.0, Waves: 2}
	set, _ := data.GenerateCIFAR(cspec, 7)
	spec := models.Spec{Family: "resnet", InC: 1, Size: 4}
	sgd := testSGD(2)
	sgd.BatchSize = 8
	sgd.ShardSize = 4

	distNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(distNet, set, replicated(sgd, 2), gmFactory); err != nil {
		t.Fatal(err)
	}

	netw, _, _ := runJob(t, set, spec, sgd, make([]TrainerConfig, 2), 2, nil, nil)
	requireSameWeights(t, "resnet weights", weightsOf(netw), weightsOf(distNet))
	wantBNs, gotBNs := distNet.BatchNorms(), netw.BatchNorms()
	for i := range wantBNs {
		wm, wv := wantBNs[i].Stats()
		gm, gv := gotBNs[i].Stats()
		for c := range wm {
			if wm[c] != gm[c] || wv[c] != gv[c] {
				t.Fatalf("batch-norm %d channel %d: running stats diverge (%v,%v) != (%v,%v)",
					i, c, gm[c], gv[c], wm[c], wv[c])
			}
		}
	}
}

// TestCoordinateElasticDeath kills a trainer abruptly (connection drop with
// shards in flight, no goodbye): the coordinator must detect the death,
// re-partition the unfinished shards over the survivor, and still finish
// with weights byte-equal to an undisturbed sequential run.
func TestCoordinateElasticDeath(t *testing.T) {
	pinGrain(t)
	set, spec := tabularJob(t)
	sgd := testSGD(3)

	seqNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(seqNet, set, sgd, gmFactory); err != nil {
		t.Fatal(err)
	}

	snapDir := t.TempDir()
	netw, _, stats := runJob(t, set, spec, sgd,
		[]TrainerConfig{{}}, 2,
		func(c *Config) { c.SnapshotDir = snapDir },
		func(addr string) { abruptTrainer(t, addr) })
	requireSameWeights(t, "after mid-step death", weightsOf(netw), weightsOf(seqNet))
	if stats.Deaths != 1 || stats.StepRedos < 1 || stats.Snapshots != 1 {
		t.Fatalf("death not recorded: %+v", stats)
	}
	if stats.MemberEpochs != stats.Joins+stats.Deaths {
		t.Fatalf("membership epoch %d != joins %d + removals %d",
			stats.MemberEpochs, stats.Joins, stats.Deaths)
	}
	snaps, err := filepath.Glob(filepath.Join(snapDir, "member-*"+train.CkptSuffix))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want 1 membership snapshot, got %v (%v)", snaps, err)
	}
	// Membership snapshots must not be mistaken for periodic checkpoints.
	if _, err := train.LatestCheckpoint(snapDir); err == nil {
		t.Fatal("membership snapshot was picked up as a resumable checkpoint")
	}
	// The snapshot itself must load as a valid training state.
	if _, err := train.LoadState(snaps[0]); err != nil {
		t.Fatalf("membership snapshot unreadable: %v", err)
	}
}

// abruptTrainer speaks just enough protocol to join, receives its first
// Step (taking shard assignments with it), and drops the connection — the
// in-process stand-in for kill -9.
func abruptTrainer(t *testing.T, addr string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	payload, _ := encodePayload(Hello{Name: "doomed"})
	if _, err := WriteFrame(conn, FrameHello, payload); err != nil {
		conn.Close()
		return
	}
	if ft, _, _, err := ReadFrame(conn); err != nil || ft != FrameWelcome {
		conn.Close()
		return
	}
	ReadFrame(conn) // first Step: accept the assignment, then vanish
	conn.Close()
}

// TestCoordinateElasticLeaveAndRejoin has a trainer finish two steps, say
// goodbye, and immediately rejoin as a fresh member: the job sails through
// both membership changes and the weights stay byte-equal.
func TestCoordinateElasticLeaveAndRejoin(t *testing.T) {
	pinGrain(t)
	set, spec := tabularJob(t)
	sgd := testSGD(3)

	seqNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(seqNet, set, sgd, gmFactory); err != nil {
		t.Fatal(err)
	}

	netw, _, stats := runJob(t, set, spec, sgd,
		[]TrainerConfig{{}}, 2, nil,
		func(addr string) {
			// Serve two steps, leave gracefully, rejoin for the rest.
			RunTrainer(TrainerConfig{Addr: addr, Name: "restless", LeaveAfterSteps: 2})
			RunTrainer(TrainerConfig{Addr: addr, Name: "restless-2"})
		})
	requireSameWeights(t, "after leave+rejoin", weightsOf(netw), weightsOf(seqNet))
	if stats.Deaths < 1 || stats.Joins < 2 {
		t.Fatalf("membership churn not recorded: %+v", stats)
	}
}

// TestCoordinateCheckpointBytesMatchDist compares checkpoint FILES: the
// train.State a distributed run writes must be byte-equal to the one
// in-process replicas write — the cross-run comparison the
// CI smoke job automates with cmp(1).
func TestCoordinateCheckpointBytesMatchDist(t *testing.T) {
	pinGrain(t)
	set, spec := tabularJob(t)

	distDir, netDir := t.TempDir(), t.TempDir()
	sgdA := testSGD(2)
	sgdA.Ckpt = &train.CheckpointPolicy{Every: 1, Dir: distDir}
	distNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(distNet, set, replicated(sgdA, 2), gmFactory); err != nil {
		t.Fatal(err)
	}

	sgdB := testSGD(2)
	sgdB.Ckpt = &train.CheckpointPolicy{Every: 1, Dir: netDir}
	runJob(t, set, spec, sgdB, make([]TrainerConfig, 2), 2, nil, nil)

	for _, epoch := range []int{1, 2} {
		name := train.CheckpointName(epoch)
		a, err := os.ReadFile(filepath.Join(distDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(netDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between dist and distnet runs", name)
		}
	}
}

// TestCoordinateResume restores a mid-job checkpoint and finishes the
// remaining epochs distributed; the result must match the uninterrupted
// run exactly.
func TestCoordinateResume(t *testing.T) {
	pinGrain(t)
	set, spec := tabularJob(t)

	full := testSGD(3)
	fullNet, _, _ := runJob(t, set, spec, full, make([]TrainerConfig, 2), 2, nil, nil)

	dir := t.TempDir()
	first := testSGD(3)
	first.Ckpt = &train.CheckpointPolicy{Every: 2, Dir: dir}
	first.AfterEpoch = func(epoch int, _ float64) bool { return epoch < 1 } // stop after epoch 2
	runJob(t, set, spec, first, make([]TrainerConfig, 2), 2, nil, nil)

	latest, err := train.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := train.LoadState(latest)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 {
		t.Fatalf("checkpoint at epoch %d, want 2", st.Epoch)
	}
	resumed := testSGD(3)
	resumed.Ckpt = &train.CheckpointPolicy{Resume: st}
	resNet, _, _ := runJob(t, set, spec, resumed, make([]TrainerConfig, 2), 2, nil, nil)
	requireSameWeights(t, "resumed distributed run", weightsOf(resNet), weightsOf(fullNet))
}

// TestCoordinateQuorumTimeout: no trainers ever join.
func TestCoordinateQuorumTimeout(t *testing.T) {
	set, spec := tabularJob(t)
	netw, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Addr: "127.0.0.1:0", Spec: spec, MinTrainers: 1,
		SGD: testSGD(1), JoinWait: 100 * time.Millisecond}
	if _, err := Coordinate(netw, set, cfg, gmFactory); err == nil {
		t.Fatal("coordinator finished without any trainers")
	}
}

func TestConfigValidate(t *testing.T) {
	_, spec := tabularJob(t)
	good := Config{Addr: ":0", Spec: spec, MinTrainers: 1, SGD: testSGD(1)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Addr = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty address accepted")
	}
	bad = good
	bad.MinTrainers = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 trainers accepted")
	}
	bad = good
	bad.SGD.BarzilaiBorwein = true
	if err := bad.Validate(); err == nil {
		t.Error("BB accepted distributed")
	}
	bad = good
	bad.Spec = models.Spec{Family: "nope"}
	if err := bad.Validate(); err == nil {
		t.Error("invalid spec accepted")
	}
	bad = good
	bad.SGD.LearningRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid SGD accepted")
	}
}

// TestRunTrainerValidation covers the trainer-side config checks.
func TestRunTrainerValidation(t *testing.T) {
	if err := RunTrainer(TrainerConfig{}); err == nil {
		t.Error("empty address accepted")
	}
	err := RunTrainer(TrainerConfig{Addr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// TestCoordinateRejectsBadGrads feeds hand-built malformed Grads frames to
// a live coordinator: each must end the job with an ErrBadGrads naming the
// trainer — never a panic, and never a fold of the poisoned values.
func TestCoordinateRejectsBadGrads(t *testing.T) {
	cspec := data.CIFARSpec{Train: 8, Test: 4, Classes: 10, Size: 4, Channels: 1,
		Signal: 0.9, Noise: 1.0, Waves: 2}
	set, _ := data.GenerateCIFAR(cspec, 7)
	spec := models.Spec{Family: "resnet", InC: 1, Size: 4}
	ref, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	shardLen := 0
	for _, p := range ref.Params() {
		shardLen += len(p.W)
	}
	// wellFormed answers a Step the way a healthy trainer would, shape-wise.
	wellFormed := func(step *Step) Grads {
		g := Grads{Seq: step.Seq}
		for _, sh := range step.Shards {
			g.Shards = append(g.Shards, ShardGrad{Index: sh.Index, Grad: make([]float64, shardLen)})
		}
		for _, bn := range ref.BatchNorms() {
			mean, _ := bn.Stats()
			g.Stats = append(g.Stats, make([]float64, len(mean)), make([]float64, len(mean)))
		}
		return g
	}
	cases := map[string]func(*Grads){
		"short stats slice": func(g *Grads) { g.Stats[0] = g.Stats[0][:1] },
		"missing stats":     func(g *Grads) { g.Stats = g.Stats[:1] },
		"NaN statistic":     func(g *Grads) { g.Stats[1][0] = math.NaN() },
		"NaN loss":          func(g *Grads) { g.Shards[0].Loss = math.NaN() },
		"Inf gradient":      func(g *Grads) { g.Shards[0].Grad[0] = math.Inf(1) },
		"short gradient":    func(g *Grads) { g.Shards[0].Grad = g.Shards[0].Grad[:1] },
	}
	for name, poison := range cases {
		t.Run(name, func(t *testing.T) {
			sgd := testSGD(1)
			sgd.BatchSize = 8
			addrCh := make(chan net.Addr, 1)
			cfg := Config{Addr: "127.0.0.1:0", Spec: spec, MinTrainers: 1, SGD: sgd,
				HeartbeatTimeout: 20 * time.Second, JoinWait: 20 * time.Second,
				OnListen: func(a net.Addr) { addrCh <- a }}
			netw, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := Coordinate(netw, set, cfg, gmFactory)
				done <- err
			}()
			go poisonTrainer((<-addrCh).String(), func(step *Step) Grads {
				g := wellFormed(step)
				poison(&g)
				return g
			})
			select {
			case err := <-done:
				if !errors.Is(err, ErrBadGrads) || !strings.Contains(err.Error(), `"poison"`) {
					t.Fatalf("want ErrBadGrads naming the trainer, got %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("coordinator did not finish")
			}
		})
	}
}

// poisonTrainer joins as "poison" and answers its first Step with reply.
func poisonTrainer(addr string, reply func(*Step) Grads) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	payload, _ := encodePayload(Hello{Name: "poison"})
	if _, err := WriteFrame(conn, FrameHello, payload); err != nil {
		return
	}
	if ft, _, _, err := ReadFrame(conn); err != nil || ft != FrameWelcome {
		return
	}
	ft, payload, _, err := ReadFrame(conn)
	if err != nil || ft != FrameStep {
		return
	}
	var step Step
	if decodePayload(payload, &step) != nil {
		return
	}
	g := reply(&step)
	if payload, err = encodePayload(g); err == nil {
		WriteFrame(conn, FrameGrads, payload)
	}
	ReadFrame(conn) // hold the connection until the coordinator drops it
}
