// Command gmreg-train trains one model on one dataset under a chosen
// regularizer and reports accuracy — a command-line probe for the library.
//
// Usage:
//
//	gmreg-train -dataset horse-colic -reg gm
//	gmreg-train -dataset hosp-fa -reg l2 -beta 1
//	gmreg-train -dataset cifar -model alex -reg gm -epochs 6
//	gmreg-train -dataset cifar -model alex -workers 4 -prefetch
//	gmreg-train -csv mydata.csv -label outcome -reg gm
//	gmreg-train -dataset horse-colic -save horse-colic -store ckpt.store
//
// Tabular datasets train logistic regression; -dataset cifar trains the
// chosen CNN on the synthetic CIFAR substitute; -csv brings your own
// binary-classification table (numeric features, 0/1 label column, missing
// cells as empty/?/NA). With -reg gm the learned per-layer mixtures are
// printed after training.
//
// -prior picks the adaptive-regularization prior family behind the EM loop:
// gm (the default zero-mean Gaussian mixture), laplace or student-t (EP-GIG
// scale mixtures with a learned rate), slope (sorted-L1, a fixed prior), or
// informative:<store-key> (Gaussian centered on a reference checkpoint loaded
// from -store — fine-tuning toward an earlier model). -prior and a non-gm
// -reg are mutually exclusive; -resume rejects checkpoints trained under a
// different prior family.
//
// -workers N (network models) trains data-parallel with N in-process model
// replicas of train.Network: each minibatch is sharded across the replicas
// running concurrently, with a deterministic gradient fold (see DESIGN.md
// §8). -shard pins the micro-shard size so results are bit-identical across
// worker counts; -prefetch overlaps batch assembly with compute.
//
// -coordinator ADDR runs the process as the multi-process distributed
// coordinator (DESIGN.md §13): it listens on ADDR, waits for -trainers
// trainer processes, and drives synchronous data-parallel SGD over TCP with
// elastic membership. -join ADDR runs the process as a trainer serving that
// coordinator; trainers hold no state and need no data or model flags.
// Distributed training covers the network models: -dataset cifar, or a
// tabular dataset with -model mlp (which also works sequentially and with
// -workers, with -hidden hidden units). With -shard pinned, final weights
// are byte-equal to the sequential run at any trainer count, even across
// trainer crashes.
//
// -telemetry FILE streams per-epoch training telemetry as JSON Lines: one
// "epoch" record (loss, LR, wall time, arena/pool counters), one "gm" record
// per parameter group (π, λ, component count, lazy-update skip ratio), and a
// "merge" record whenever a mixture collapses components. Telemetry only
// observes — training is bit-identical with or without it (DESIGN.md §10).
//
// -save KEY appends the trained model (weights, batch-norm statistics, and
// the learned GM snapshot) as a new version of KEY in the checkpoint store
// file named by -store, creating the file if needed. gmreg-serve serves and
// hot-reloads such stores. -save refuses to persist a run that was
// interrupted before its configured epoch count.
//
// -ckpt-every N -ckpt-dir DIR writes a full training-state checkpoint (model,
// optimizer momentum, GM mixtures, data-stream position) every N epochs;
// -resume PATH (a checkpoint file, or a directory whose latest checkpoint is
// used) continues a killed run bit-identically to the uninterrupted one
// (DESIGN.md §11). SIGINT/SIGTERM stop training cleanly at the next epoch
// boundary. -die-at-epoch N is the fault-injection hook CI uses to rehearse
// the crash/resume cycle.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"gmreg"
	"gmreg/internal/cli"
	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/distnet"
	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/obs"
	"gmreg/internal/serve"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

func main() {
	var (
		dataset   = flag.String("dataset", "horse-colic", "dataset: a UCI name, hosp-fa, or cifar")
		csvPath   = flag.String("csv", "", "train on your own CSV instead of a synthetic dataset")
		label     = flag.String("label", "", "label column for -csv (default: last column)")
		model     = flag.String("model", "alex", "CNN for -dataset cifar: alex|resnet")
		regName   = flag.String("reg", "gm", "regularizer: gm|l1|l2|elastic|huber|none")
		prior     = cli.Prior(flag.CommandLine)
		beta      = flag.Float64("beta", 1, "strength for the fixed baselines (also SLOPE's top weight and the informative prior's initial pull)")
		gamma     = flag.Float64("gamma", 0.001, "GM γ (b = γ·M)")
		epochs    = flag.Int("epochs", 40, "training epochs")
		lr        = flag.Float64("lr", 0.5, "learning rate (use ~0.01 for CNNs)")
		batch     = flag.Int("batch", 32, "minibatch size")
		seed      = cli.Seed(flag.CommandLine)
		trainN    = flag.Int("cifar-train", 500, "synthetic CIFAR training samples")
		testN     = flag.Int("cifar-test", 200, "synthetic CIFAR test samples")
		size      = flag.Int("cifar-size", 16, "synthetic CIFAR image size (32 = paper geometry)")
		saveGM    = flag.String("save-gm", "", "write the learned GM snapshot JSON here (tabular + -reg gm only; inspect with gmreg-inspect)")
		save      = flag.String("save", "", "append the trained model as a new checkpoint version under this store key")
		stPath    = cli.Store(flag.CommandLine, "checkpoint store file for -save (created if missing)")
		workers   = cli.Workers(flag.CommandLine)
		shard     = cli.Shard(flag.CommandLine)
		prefetch  = cli.Prefetch(flag.CommandLine)
		telemetry = cli.Telemetry(flag.CommandLine)

		coord    = cli.Coordinator(flag.CommandLine)
		join     = cli.Join(flag.CommandLine)
		trainers = cli.Trainers(flag.CommandLine)
		hidden   = flag.Int("hidden", 16, "hidden units for -model mlp (tabular datasets)")
		dieAfter = flag.Int("die-after-steps", 0, "fault injection (-join only): kill the trainer process after N global steps (testing only)")

		ckptEvery  = flag.Int("ckpt-every", 0, "write a training-state checkpoint every N epochs (0 = off; needs -ckpt-dir)")
		ckptDir    = flag.String("ckpt-dir", "", "directory for training-state checkpoints")
		ckptRetain = flag.Int("ckpt-retain", 0, "checkpoint files to keep, oldest pruned first (0 = default 3)")
		resume     = flag.String("resume", "", "resume from a training-state checkpoint file, or the latest one in a directory")
		dieAt      = flag.Int("die-at-epoch", 0, "fault injection: abort with an error after N completed epochs (testing only)")
	)
	flag.Parse()
	gmSnapshotPath = *saveGM
	saveKey, savePath = *save, *stPath

	flags := runFlags{
		Coordinator: *coord, Join: *join, Trainers: *trainers,
		Workers: *workers, Shard: *shard, Batch: *batch,
		Dataset: *dataset, Model: *model, CSV: *csvPath,
		Resume: *resume, Save: *save,
		Reg: *regName, Prior: *prior, StorePath: *stPath,
	}
	if *join != "" {
		if err := checkFlagConflicts(flags); err != nil {
			fatal(err)
		}
		if err := distnet.RunTrainer(distnet.TrainerConfig{Addr: *join, DieAfterSteps: *dieAfter}); err != nil {
			fatal(err)
		}
		return
	}

	sink, done, err := cli.OpenTelemetry(*telemetry)
	if err != nil {
		fatal(err)
	}
	defer done()

	cfg := train.SGDConfig{
		LearningRate: *lr,
		Momentum:     0.9,
		Epochs:       *epochs,
		BatchSize:    *batch,
		ShardSize:    *shard,
		Replicas:     *workers,
		Seed:         *seed,
		Prefetch:     *prefetch,
	}
	if sink != nil {
		cfg.Sink = sink
	}
	pol, err := buildCkptPolicy(*ckptEvery, *ckptDir, *ckptRetain, *resume, *dieAt)
	if err != nil {
		fatal(err)
	}
	cfg.Ckpt = pol
	if pol != nil {
		flags.ResumeState = pol.Resume
	}
	if err := checkFlagConflicts(flags); err != nil {
		fatal(err)
	}
	factory, err := buildFactory(*regName, *prior, *beta, *gamma, *stPath, sinkOrNil(sink))
	if err != nil {
		fatal(err)
	}
	installSignalStop(&cfg)
	var net *distnet.Config // nil: train in process
	if *coord != "" {
		net = &distnet.Config{Addr: *coord, MinTrainers: *trainers}
		if pol != nil {
			net.SnapshotDir = pol.Dir
		}
	}
	if *csvPath != "" {
		if err := runCSV(*csvPath, *label, cfg, factory, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *dataset == "cifar" {
		if err := runCIFAR(*model, cfg, factory, *trainN, *testN, *size, *seed, net); err != nil {
			fatal(err)
		}
		return
	}
	if *model == "mlp" {
		if err := runTabularMLP(*dataset, cfg, factory, *seed, *hidden, net); err != nil {
			fatal(err)
		}
		return
	}
	task, err := loadTabular(*dataset, *seed)
	if err != nil {
		fatal(err)
	}
	if err := trainAndReport(task, cfg, factory, *seed); err != nil {
		fatal(err)
	}
}

// trainNetwork runs a network training job in process with cfg.Replicas
// replicas, or as the coordinator of dc's distributed job (dc's Spec, SGD
// and Stats are filled in here); net must match spec.
func trainNetwork(netw *nn.Network, set *data.ImageSet, spec models.Spec, cfg train.SGDConfig, factory gmreg.Factory, dc *distnet.Config) (*train.NetworkResult, error) {
	if dc == nil {
		if cfg.Replicas > 1 {
			fmt.Printf("data-parallel: %d replicas\n", cfg.Replicas)
		}
		return train.Network(netw, set, cfg, factory)
	}
	fmt.Printf("coordinator: listening on %s, waiting for %d trainer(s)\n", dc.Addr, dc.MinTrainers)
	stats := &distnet.RunStats{}
	job := *dc
	job.Spec, job.SGD, job.Stats = spec, cfg, stats
	res, err := distnet.Coordinate(netw, set, job, factory)
	if err != nil {
		return nil, err
	}
	fmt.Printf("distributed: %d joins, %d deaths, %d re-issued steps, %d B in, %d B out\n",
		stats.Joins, stats.Deaths, stats.StepRedos, stats.BytesIn, stats.BytesOut)
	return res, nil
}

// runTabularMLP trains the shared-spec MLP on a tabular dataset through the
// network trainers, so the same job can run sequentially, data-parallel, or
// across processes with byte-comparable checkpoints (the distnet CI smoke
// job relies on this path).
func runTabularMLP(name string, cfg train.SGDConfig, factory gmreg.Factory, seed uint64, hidden int, dc *distnet.Config) error {
	task, err := loadTabular(name, seed)
	if err != nil {
		return err
	}
	set := data.TabularImageSet(task)
	spec := models.Spec{Family: "mlp", In: set.C, Hidden: hidden, Classes: set.Classes}
	netw, err := spec.Build()
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d samples × %d features\n", task.Name, set.N, set.C)
	fmt.Printf("model mlp: %d regularized parameters\n", netw.NumParams(true))
	res, err := trainNetwork(netw, set, spec, cfg, factory, dc)
	if err != nil {
		return err
	}
	fmt.Printf("final training loss: %.4f (%.2fs)\n", res.History.FinalLoss(), res.History.TotalTime().Seconds())
	fmt.Printf("train accuracy: %.3f\n", train.EvalNetwork(netw, set, 64))
	return reportNetwork(res, spec, map[string]string{
		"dataset": task.Name,
		"model":   "mlp",
		"seed":    fmt.Sprintf("%d", seed),
	})
}

// reportNetwork prints each parameter group's learned prior and, with -save,
// stores the trained network under spec with its GM records and meta.
func reportNetwork(res *train.NetworkResult, spec models.Spec, meta map[string]string) error {
	if err := refuseSaveInterrupted(); err != nil {
		return err
	}
	return saveCheckpoint(spec, res.Net, reportPriors(res.Regs), meta)
}

// reportPriors prints each group's learned prior in name order and returns
// the records -save stores: one GM snapshot per GM-regularized group.
func reportPriors(regs map[string]gmreg.Regularizer) []train.RegState {
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []train.RegState
	for _, n := range names {
		switch p := regs[n].(type) {
		case *core.GM:
			printGM(n, p)
			out = append(out, train.RegState{Name: n, GM: p.Snapshot()})
		case core.Prior:
			printPrior(n, p)
		}
	}
	return out
}

// runCSV trains logistic regression on a user-provided CSV table.
func runCSV(path, label string, cfg train.SGDConfig, factory gmreg.Factory, seed uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	task, err := data.ReadCSV(f, path, data.CSVOptions{LabelColumn: label, Standardize: true})
	if err != nil {
		return err
	}
	return trainAndReport(task, cfg, factory, seed)
}

// buildCkptPolicy assembles the training-state checkpoint policy from the
// -ckpt-*/-resume/-die-at-epoch flags. -resume accepts either a checkpoint
// file or a directory (the latest checkpoint inside is used); when -ckpt-every
// is set without -ckpt-dir, new checkpoints continue in the resumed
// checkpoint's directory.
func buildCkptPolicy(every int, dir string, retain int, resume string, dieAt int) (*train.CheckpointPolicy, error) {
	if every == 0 && resume == "" && dieAt == 0 {
		return nil, nil
	}
	pol := &train.CheckpointPolicy{Every: every, Dir: dir, Retain: retain, DieAtEpoch: dieAt}
	if resume != "" {
		path := resume
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			latest, err := train.LatestCheckpoint(path)
			if err != nil {
				return nil, err
			}
			path = latest
		}
		st, err := train.LoadState(path)
		if err != nil {
			return nil, err
		}
		pol.Resume = st
		if pol.Every > 0 && pol.Dir == "" {
			pol.Dir = filepath.Dir(path)
		}
		fmt.Printf("resuming from %s (%d/%d epochs done)\n", path, st.Epoch, st.Epochs)
	}
	return pol, nil
}

// interrupted records that training was stopped early at an epoch boundary by
// SIGINT/SIGTERM. A partial run must not be saved as if it had completed:
// trainAndReport and runCIFAR refuse -save/-save-gm when it is set.
var interrupted bool

// installSignalStop arranges for SIGINT/SIGTERM to stop training cleanly at
// the next epoch boundary (after that epoch's checkpoint decision) instead of
// killing the process mid-update. A second signal falls back to the default
// immediate termination.
func installSignalStop(cfg *train.SGDConfig) {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	prev := cfg.AfterEpoch
	cfg.AfterEpoch = func(epoch int, loss float64) bool {
		select {
		case sig := <-stop:
			signal.Stop(stop)
			interrupted = true
			fmt.Fprintf(os.Stderr, "gmreg-train: %v — stopping after epoch %d\n", sig, epoch+1)
			return false
		default:
		}
		if prev != nil {
			return prev(epoch, loss)
		}
		return true
	}
}

// refuseSaveInterrupted rejects persisting artifacts of a run that did not
// reach its configured epoch count.
func refuseSaveInterrupted() error {
	if interrupted && (saveKey != "" || gmSnapshotPath != "") {
		return fmt.Errorf("training was interrupted before completion; refusing -save/-save-gm — resume with -resume and save from the finished run")
	}
	return nil
}

// sinkOrNil converts a possibly-nil concrete sink to a clean nil interface.
func sinkOrNil(j *obs.JSONL) gmreg.Sink {
	if j == nil {
		return nil
	}
	return j
}

// buildFactory assembles the regularizer factory from the canonical -prior
// flag (which wins when set) or the legacy -reg flag. beta doubles as
// SLOPE's top rank weight and the informative prior's initial pull
// precision; storePath names the store the informative reference checkpoint
// is loaded from.
func buildFactory(name, prior string, beta, gamma float64, storePath string, sink gmreg.Sink) (gmreg.Factory, error) {
	opts := []gmreg.Option{gmreg.WithConfig(func(c *gmreg.Config) { c.Gamma = gamma })}
	if sink != nil {
		opts = append(opts, gmreg.WithSink(sink))
	}
	if prior != "" {
		family, key, err := parsePrior(prior)
		if err != nil {
			return nil, err
		}
		switch family {
		case "gm":
			// Default spec: New without WithPrior builds the adaptive GM.
		case "laplace":
			opts = append(opts, gmreg.WithPrior(gmreg.LaplacePrior()))
		case "student-t":
			opts = append(opts, gmreg.WithPrior(gmreg.StudentTPrior(1)))
		case "slope":
			opts = append(opts, gmreg.WithPrior(gmreg.SlopePrior(beta, 0.1)))
		case "informative":
			spec, err := gmreg.InformativePriorFromStore(storePath, key, beta)
			if err != nil {
				return nil, err
			}
			opts = append(opts, gmreg.WithPrior(spec))
		}
		return gmreg.New(opts...), nil
	}
	switch name {
	case "gm":
		return gmreg.New(opts...), nil
	case "l1":
		return gmreg.L1(beta), nil
	case "l2":
		return gmreg.L2(beta), nil
	case "elastic":
		return gmreg.ElasticNet(beta, 0.5), nil
	case "huber":
		return gmreg.Huber(beta, 0.1), nil
	case "none":
		return gmreg.NoReg(), nil
	default:
		return nil, fmt.Errorf("unknown regularizer %q", name)
	}
}

// loadTabular generates hosp-fa or loads the named UCI dataset.
func loadTabular(name string, seed uint64) (*data.Task, error) {
	if name == "hosp-fa" {
		return data.GenerateHospFA(data.DefaultHospFA(), seed), nil
	}
	return data.LoadUCI(name, seed)
}

// trainAndReport fits logistic regression on a stratified split and prints
// the standard report (plus the learned GM when applicable).
func trainAndReport(task *data.Task, cfg train.SGDConfig, factory gmreg.Factory, seed uint64) error {
	rng := tensor.NewRNG(seed + 1)
	trainRows, testRows := data.StratifiedSplit(task.Y, 0.8, rng)
	res, err := train.LogReg(task, trainRows, cfg, factory)
	if err != nil {
		return err
	}
	testAcc := res.Model.Accuracy(task.X, task.Y, testRows)
	fmt.Printf("dataset %s: %d samples × %d features\n", task.Name, task.NumSamples(), task.NumFeatures())
	fmt.Printf("regularizer: %s\n", res.Regularizer.Name())
	fmt.Printf("final training loss: %.4f (%.2fs)\n", res.History.FinalLoss(), res.History.TotalTime().Seconds())
	fmt.Printf("train accuracy: %.3f\n", res.Model.Accuracy(task.X, task.Y, trainRows))
	fmt.Printf("test accuracy:  %.3f\n", testAcc)
	if err := refuseSaveInterrupted(); err != nil {
		return err
	}
	regs := reportPriors(map[string]gmreg.Regularizer{"weights": res.Regularizer})
	if g, ok := res.Regularizer.(*core.GM); ok && gmSnapshotPath != "" {
		blob, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(gmSnapshotPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("GM snapshot written to %s\n", gmSnapshotPath)
	}
	meta := map[string]string{
		"dataset":       task.Name,
		"regularizer":   res.Regularizer.Name(),
		"test_accuracy": fmt.Sprintf("%.4f", testAcc),
		"seed":          fmt.Sprintf("%d", seed),
	}
	spec := models.Spec{Family: "logreg", In: task.NumFeatures()}
	return saveCheckpoint(spec, models.LogRegNetwork(res.Model), regs, meta)
}

// gmSnapshotPath is the -save-gm destination ("" = disabled).
var gmSnapshotPath string

func runCIFAR(model string, cfg train.SGDConfig, factory gmreg.Factory, trainN, testN, size int, seed uint64, dc *distnet.Config) error {
	spec := data.DefaultCIFAR(trainN, testN)
	spec.Size = size
	trainSet, testSet := data.GenerateCIFAR(spec, seed)
	rng := tensor.NewRNG(seed + 1)
	var net = models.AlexCIFAR10(3, size, rng)
	mspec := models.Spec{Family: "alex", InC: 3, Size: size}
	if model == "resnet" {
		net = models.ResNet20(3, size, rng)
		mspec.Family = "resnet"
		cfg.Augment = true
	}
	fmt.Printf("model %s: %d regularized parameters\n", model, net.NumParams(true))
	res, err := trainNetwork(net, trainSet, mspec, cfg, factory, dc)
	if err != nil {
		return err
	}
	testAcc := train.EvalNetwork(net, testSet, 64)
	fmt.Printf("final training loss: %.4f (%.2fs)\n", res.History.FinalLoss(), res.History.TotalTime().Seconds())
	fmt.Printf("train accuracy: %.3f\n", train.EvalNetwork(net, trainSet, 64))
	fmt.Printf("test accuracy:  %.3f\n", testAcc)
	return reportNetwork(res, mspec, map[string]string{
		"dataset":       "cifar",
		"model":         model,
		"test_accuracy": fmt.Sprintf("%.4f", testAcc),
		"seed":          fmt.Sprintf("%d", seed),
	})
}

// saveCheckpoint appends the trained model as a new version of the -save key
// in the -store snapshot file, creating it if needed; a no-op without -save.
func saveCheckpoint(spec models.Spec, net *nn.Network, regs []train.RegState, meta map[string]string) error {
	if saveKey == "" {
		return nil
	}
	ckpt, err := serve.NewCheckpoint(spec, net, regs, meta)
	if err != nil {
		return err
	}
	v, err := serve.PublishCheckpoint(savePath, saveKey, ckpt)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint %s@v%d (%.12s…) written to %s\n", saveKey, v.Seq, v.Hash, savePath)
	return nil
}

// saveKey/savePath are the -save/-store destinations ("" = disabled).
var saveKey, savePath string

func printGM(name string, g *core.GM) {
	fmt.Printf("learned GM for %s: π = %v, λ = %v\n", name, rounded(g.Pi()), rounded(g.Lambda()))
}

// printPrior reports a non-GM prior's learned state: the single rate the
// EP-GIG and informative families fit in place of a mixture. Stateless priors
// (SLOPE, fixed baselines) have nothing learned to report.
func printPrior(name string, p core.Prior) {
	if !p.Stateful() {
		return
	}
	_, rate := p.Mixture()
	fmt.Printf("learned %s prior for %s: rate = %v\n", p.Family(), name, rounded(rate))
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(int(v*1000+0.5)) / 1000
	}
	return out
}

func fatal(err error) {
	if errors.Is(err, train.ErrFaultInjected) {
		err = fmt.Errorf("%w — checkpoints up to the last boundary are on disk; restart with -resume", err)
	}
	cli.Fatal("gmreg-train", err)
}
