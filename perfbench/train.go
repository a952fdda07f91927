package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"gmreg"
	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// trainWorkload is one offline training job: train.Network with the default
// GM prior, repeated from the same seed for as long as the run lasts.
type trainWorkload struct {
	cfg   train.SGDConfig
	data  func(seed uint64) *data.ImageSet
	model func(seed uint64) *nn.Network
}

// train-cnn: Alex-CIFAR-10 at 32×32 on 512 synthetic CIFAR images. The
// conv/LRN kernels do nearly all the work and the GM prior very little.
var cnnWorkload = trainWorkload{
	cfg: train.SGDConfig{LearningRate: 0.001, Momentum: 0.9, Epochs: 2, BatchSize: 64, Prefetch: true},
	data: func(seed uint64) *data.ImageSet {
		set, _ := data.GenerateCIFAR(data.DefaultCIFAR(512, 0), seed)
		return set
	},
	model: func(seed uint64) *nn.Network { return models.AlexCIFAR10(3, 32, tensor.NewRNG(seed)) },
}

// train-mlp-gm: a 375→64→2 MLP on HospFA (1755×375). The GM prior's
// E-step, M-step and gradient fold over 24k weights dominate the step.
var mlpWorkload = trainWorkload{
	cfg: train.SGDConfig{LearningRate: 0.05, Momentum: 0.9, Epochs: 8, BatchSize: 32, Prefetch: true},
	data: func(seed uint64) *data.ImageSet {
		return data.TabularImageSet(data.GenerateHospFA(data.DefaultHospFA(), seed))
	},
	model: func(seed uint64) *nn.Network { return models.MLP(375, 64, 2, tensor.NewRNG(seed)) },
}

func runTrainCNN(o options) (*result, error) { return runTrain(o, cnnWorkload) }
func runTrainMLP(o options) (*result, error) { return runTrain(o, mlpWorkload) }

// repResult is one train.Network call.
type repResult struct {
	wall     time.Duration
	epochs   []time.Duration
	first    float64 // epoch-1 mean loss
	final    float64 // last-epoch mean loss
	steps    int
	mallocs  uint64
	arenaMis int64
	poolJobs int64
}

func runTrain(o options, w trainWorkload) (*result, error) {
	res := newResult()
	set, setupSecs, err := timeSetups(setupRuns, func() (*data.ImageSet, error) {
		set := w.data(o.seed)
		w.model(o.seed) // the first network is built as part of set-up
		return set, nil
	}, func(*data.ImageSet) {})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupSecs
	cfg := w.cfg
	cfg.Seed = o.seed
	nBatches := (set.N + cfg.BatchSize - 1) / cfg.BatchSize

	// The first untraced run's trained network and regularizers are kept
	// for the per-layer probes; later runs' are dropped, so memory does not
	// grow with the number of runs.
	var first *train.NetworkResult
	rep := func(tt *trainTrace) (repResult, error) {
		net := w.model(o.seed)
		factory := gmreg.New()
		if tt != nil {
			net = tt.wrap(net)
			factory = tt.factory(factory)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		if tt == nil {
			runtime.ReadMemStats(&m0)
		}
		a0, p0 := tensor.DefaultArena.Stats(), tensor.Pool().Stats()
		t0 := time.Now()
		if tt != nil {
			tt.begin(t0)
		}
		out, err := train.Network(net, set, cfg, factory)
		t1 := time.Now()
		if tt != nil {
			tt.end(t1)
		}
		if err != nil {
			return repResult{}, err
		}
		a1, p1 := tensor.DefaultArena.Stats(), tensor.Pool().Stats()
		r := repResult{
			wall:     t1.Sub(t0),
			first:    out.History.EpochLoss[0],
			final:    out.History.FinalLoss(),
			steps:    len(out.History.EpochLoss) * nBatches,
			arenaMis: a1.Misses - a0.Misses,
			poolJobs: p1.Jobs - p0.Jobs,
		}
		if tt == nil {
			runtime.ReadMemStats(&m1)
			r.mallocs = m1.Mallocs - m0.Mallocs
			if first == nil {
				first = out
			}
		}
		prev := time.Duration(0)
		for _, t := range out.History.EpochTime {
			r.epochs = append(r.epochs, t-prev)
			prev = t
		}
		return r, nil
	}

	// Untraced reps measure the end-to-end numbers; in a traced run they
	// alternate with traced reps, which give the per-layer numbers and,
	// against the untraced ones, the tracing overhead.
	var plain, traced []repResult
	var tt *trainTrace
	if o.traced {
		tt = newTrainTrace()
	}
	start := time.Now()
	var repWall dist
	for i := 0; ; i++ {
		useTrace := o.traced && i%2 == 1
		var trc *trainTrace
		if useTrace {
			trc = tt
		}
		r, err := rep(trc)
		if err != nil {
			return nil, err
		}
		res.attempted += r.steps
		if useTrace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		repWall.addDur(r.wall)
		elapsed := time.Since(start)
		if len(plain) >= 2 && (!o.traced || len(traced) >= 1) &&
			elapsed+time.Duration(repWall.median()*float64(time.Millisecond)) > o.dur {
			break
		}
	}

	// Correctness: every run of one seed ends at the same loss bit for bit,
	// finite and below the first epoch's — traced runs included, which shows
	// the wrappers do not perturb training.
	ref := plain[0]
	if math.IsNaN(ref.final) || math.IsInf(ref.final, 0) {
		res.fail("final training loss is not finite: %v", ref.final)
	}
	if !(ref.final < ref.first) {
		res.fail("final training loss %v is not below the first epoch's %v", ref.final, ref.first)
	}
	for i, r := range append(plain[1:], traced...) {
		if math.Float64bits(r.final) != math.Float64bits(ref.final) {
			kind := "repeat"
			if i >= len(plain)-1 {
				kind = "traced run"
			}
			res.fail("%s ended at loss %v, first run at %v", kind, r.final, ref.final)
		}
	}
	fmt.Printf("loss: epoch 1 %.6g, final %.17g (%d runs, %d traced)\n", ref.first, ref.final, len(plain), len(traced))

	var epochMs dist
	for _, r := range plain {
		for _, e := range r.epochs {
			epochMs.addDur(e)
		}
	}
	fmt.Printf("epoch time: %s; run by run:", epochMs.describe("ms"))
	for _, r := range plain {
		fmt.Print(" [")
		for i, e := range r.epochs {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%.0f", ms(e))
		}
		fmt.Print("]")
	}
	fmt.Println()
	res.e2e["throughput_per_s"] = float64(set.N) / (epochMs.median() / 1000)
	res.e2e["latency_p50_ms"] = epochMs.median()
	fmt.Printf("train_samples_per_s = %.6g 1/s (median epoch of %d samples)\n", res.e2e["throughput_per_s"], set.N)

	if o.traced {
		if err := reportTrainLayers(o, res, tt, first, plain, traced, set, cfg.BatchSize, epochMs.median()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// trainTrace records spans around the calls train.Network makes into each
// layer: every nn.Layer's Forward and Backward, and each regularizer's Grad
// with the GM's E- and M-steps inside it.
type trainTrace struct {
	tr        *tracer
	run, step int
	grad      int
}

func newTrainTrace() *trainTrace { return &trainTrace{tr: newTracer(), run: -1, step: -1} }

func (t *trainTrace) begin(now time.Time) { t.run = t.tr.open("train.run", now, -1); t.step = -1 }

func (t *trainTrace) end(now time.Time) {
	if t.step >= 0 {
		t.tr.close(t.step, now)
	}
	t.tr.close(t.run, now)
}

// newStep starts the span of one training step at the first layer's
// Forward; the step runs until the next one starts, so it covers the loss,
// the optimizer update and the wait for the next batch.
func (t *trainTrace) newStep(now time.Time) {
	if t.step >= 0 {
		t.tr.close(t.step, now)
	}
	t.step = t.tr.open("train.step", now, t.run)
}

func (t *trainTrace) wrap(net *nn.Network) *nn.Network {
	layers := make([]nn.Layer, len(net.Layers))
	for i, l := range net.Layers {
		layers[i] = &tracedLayer{Layer: l, t: t, first: i == 0,
			fwd: "nn." + l.Name() + ".fwd", bwd: "nn." + l.Name() + ".bwd"}
	}
	return nn.NewNetwork(layers...)
}

type tracedLayer struct {
	nn.Layer
	t        *trainTrace
	first    bool
	fwd, bwd string
}

func (l *tracedLayer) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	t0 := time.Now()
	if l.first {
		l.t.newStep(t0)
	}
	y := l.Layer.Forward(x, training)
	l.t.tr.add(l.fwd, t0, time.Now(), l.t.step, 0)
	return y
}

func (l *tracedLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	dx := l.Layer.Backward(dy)
	l.t.tr.add(l.bwd, t0, time.Now(), l.t.step, 0)
	return dx
}

// factory wraps every regularizer the inner factory builds and hooks the
// GM's E- and M-step timers.
func (t *trainTrace) factory(inner reg.Factory) reg.Factory {
	return func(m int, initStd float64) reg.Regularizer {
		r := inner(m, initStd)
		if p, ok := r.(core.Prior); ok {
			p.SetHooks(&core.Hooks{
				EStep: func(d time.Duration) { t.child("core.estep", d) },
				MStep: func(d time.Duration) { t.child("core.mstep", d) },
			})
		}
		return &tracedReg{Regularizer: r, t: t}
	}
}

// child records a span that just ended after d, inside the open Grad span.
func (t *trainTrace) child(name string, d time.Duration) {
	end := time.Now()
	t.tr.add(name, end.Add(-d), end, t.grad, 0)
}

type tracedReg struct {
	reg.Regularizer
	t *trainTrace
}

func (r *tracedReg) Grad(w, dst []float64) {
	r.t.grad = r.t.tr.open("core.grad", time.Now(), r.t.step)
	r.Regularizer.Grad(w, dst)
	r.t.tr.close(r.t.grad, time.Now())
}

// SetBatchesPerEpoch passes the trainer's batch count on to the GM, whose
// lazy-update schedule depends on it.
func (r *tracedReg) SetBatchesPerEpoch(b int) {
	if ea, ok := r.Regularizer.(train.EpochAware); ok {
		ea.SetBatchesPerEpoch(b)
	}
}

// reportTrainLayers turns the traced reps into the per-layer metrics, checks
// that they reconcile with the traced wall time, and prints the ledger.
func reportTrainLayers(o options, res *result, tt *trainTrace, first *train.NetworkResult, plain, traced []repResult, set *data.ImageSet, batch int, plainEpochMs float64) error {
	led, err := tt.tr.ledger()
	if err != nil {
		res.fail("trace does not nest: %v", err)
		return nil
	}
	var steps int
	var measured time.Duration
	var tracedEpochs dist
	for _, r := range traced {
		steps += r.steps
		measured += r.wall
		for _, e := range r.epochs {
			tracedEpochs.addDur(e)
		}
	}
	if err := led.reconcile(measured); err != nil {
		res.fail("reconciliation: %v", err)
	}
	perStep := func(d time.Duration) float64 { return ms(d) / float64(steps) }
	L := res.layers
	remainder := led.self["train.step"] + led.self["train.run"]
	L["train.step_ms"] = perStep(led.wall)
	L["train.remainder_ms"] = perStep(remainder)
	// core.grad_ms is the whole Grad call; the E- and M-step shares of it
	// are reported beside it.
	L["core.grad_ms"] = perStep(led.self["core.grad"] + led.self["core.estep"] + led.self["core.mstep"])
	L["core.estep_ms"] = perStep(led.self["core.estep"])
	L["core.mstep_ms"] = perStep(led.self["core.mstep"])
	for name := range led.self {
		if strings.HasPrefix(name, "nn.") {
			L[name+"_ms"] = perStep(led.self[name])
		}
	}

	// Counters come from the untraced reps, which the tracer cannot touch.
	var plainSteps int
	var mallocs uint64
	var arenaMis, poolJobs int64
	for _, r := range plain {
		plainSteps += r.steps
		mallocs += r.mallocs
		arenaMis += r.arenaMis
		poolJobs += r.poolJobs
	}
	L["train.allocs_per_step"] = float64(mallocs) / float64(plainSteps)
	L["tensor.arena_miss_per_step"] = float64(arenaMis) / float64(plainSteps)
	L["tensor.pool_jobs_per_step"] = float64(poolJobs) / float64(plainSteps)
	var eSteps int
	var skip float64
	for name, r := range first.Regs {
		p, ok := r.(core.Prior)
		if !ok {
			return fmt.Errorf("regularizer of %s is a %T, not a core.Prior", name, r)
		}
		e, _ := p.Steps()
		eSteps += e
		skip += p.SkipRatio()
	}
	L["core.estep_count"] = float64(eSteps)
	L["core.skip_ratio"] = skip / float64(len(first.Regs))

	// The batch pipeline on its own: assembling one batch, no prefetch.
	var batchMs dist
	b := data.NewBatches(set, data.StreamConfig{Batch: batch, Epochs: 1, Seed: o.seed})
	for {
		t0 := time.Now()
		x, _ := b.Next()
		if x == nil {
			break
		}
		batchMs.addDur(time.Since(t0))
	}
	b.Close()
	L["data.batch_ms"] = batchMs.median()
	L["nn.forward_us.b1"] = forwardB1(first.Net, set) * 1000
	L["trace.overhead_pct"] = (tracedEpochs.median() - plainEpochMs) / plainEpochMs * 100

	// Reconcile the reported per-step numbers: the layer metrics plus the
	// remainder must add up to the step wall time, so a span the report
	// leaves out fails the run.
	rows := []string{"core.grad_ms", "train.remainder_ms"}
	for name := range led.self {
		if strings.HasPrefix(name, "nn.") {
			rows = append(rows, name+"_ms")
		}
	}
	var sum float64
	for _, r := range rows {
		sum += L[r]
	}
	if math.Abs(sum-L["train.step_ms"]) > 1e-6*L["train.step_ms"] {
		res.fail("per-layer self times add up to %.6g ms/step, traced wall time is %.6g ms/step", sum, L["train.step_ms"])
	}
	sort.Slice(rows, func(i, j int) bool { return L[rows[i]] > L[rows[j]] })
	fmt.Printf("-- per-layer self time over %d traced steps (wall %.4g ms/step)\n", steps, L["train.step_ms"])
	for _, r := range rows {
		fmt.Printf("  %-24s %10.4g ms/step %6.2f%%\n", r, L[r], 100*L[r]/L["train.step_ms"])
		if r == "core.grad_ms" {
			fmt.Printf("    of which core.estep_ms %.4g (%d E-steps), core.mstep_ms %.4g\n",
				L["core.estep_ms"], int(L["core.estep_count"]), L["core.mstep_ms"])
		}
	}
	fmt.Printf("  train.remainder_ms is loss, optimizer update and data wait; layers + remainder = %.6g ms/step\n", sum)
	fmt.Printf("  data.batch_ms standalone: %s\n", batchMs.describe("ms"))
	fmt.Printf("  tracing overhead: traced epoch p50 %.4g ms vs untraced %.4g ms (%+.2f%%)\n",
		tracedEpochs.median(), plainEpochMs, L["trace.overhead_pct"])
	if err := tt.tr.write(o.trace); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", o.trace)
	return nil
}

// forwardB1 is the median time in milliseconds of one inference forward
// pass over a single sample.
func forwardB1(net *nn.Network, set *data.ImageSet) float64 {
	x, _ := set.Batch([]int{0})
	var d dist
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		net.Forward(x, false)
		if i >= 10 {
			d.addDur(time.Since(t0))
		}
	}
	return d.median()
}
