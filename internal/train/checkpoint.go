package train

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gmreg/internal/core"
	"gmreg/internal/nn"
	"gmreg/internal/obs"
	"gmreg/internal/reg"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
)

// This file implements crash-safe resumable training: a State value captures
// everything a trainer's epoch boundary holds — model weights (including
// batch-norm running statistics), optimizer momentum, per-group GM mixture
// state (π, λ, hyper-priors, lazy-update cursors, cached gradient, merge
// history), shuffle/RNG position, and the epoch cursor — and a resumed run
// continues from it bit for bit. The contract, verified by
// faultinject_test.go and the CI resume job:
//
//	A run killed at any epoch boundary and resumed from its latest
//	checkpoint produces byte-identical final weights, GM state, and
//	deterministic telemetry to the uninterrupted run, for train.LogReg and
//	train.Network at any replica count.
//
// Wall-clock quantities (History.EpochTime, telemetry elapsed/fold seconds,
// arena/pool counter deltas, ckpt events) are inherently non-deterministic
// and are excluded from the contract; checkpoint files therefore never
// contain them, which is what makes the files themselves byte-comparable
// across runs (DESIGN.md §11).

// init primes gob's package-global type registry with the full State type
// tree. gob assigns wire type ids from a process-global counter in
// first-use order, and every State file embeds those ids — without a fixed
// assignment point, a process that gob-encodes anything else first (the
// distnet wire protocol, a store snapshot) would write byte-different
// checkpoint files for equal logical state, breaking the cross-process
// byte-comparison contract above.
func init() {
	// Order matters: State first, so its type-id assignment (and therefore
	// the bytes of v1 checkpoint files) is exactly what it was before the
	// v2 framing existed; the stateV2 tree extends the registry after it.
	gob.NewEncoder(io.Discard).Encode(&State{})
	gob.NewEncoder(io.Discard).Encode(&stateV2{})
}

// ErrFaultInjected is returned by trainers when CheckpointPolicy.DieAtEpoch
// aborts training — the in-process stand-in for a preemption or crash used
// by the fault-injection harness and `gmreg-train -die-at-epoch`.
var ErrFaultInjected = errors.New("train: fault injected")

// Trainer kinds recorded in State.Kind.
const (
	KindLogReg  = "logreg"
	KindNetwork = "network"
)

// GroupState is one parameter group's weights and momentum velocity.
type GroupState struct {
	Name string
	W    []float64
	Vel  []float64
}

// StatState is one batch-norm layer's running statistics.
type StatState struct {
	Name string
	Mean []float64
	Var  []float64
}

// RegState is one adaptive GM regularizer's full learned state. Fixed
// baselines (L1/L2/…) are stateless and have no entry; non-GM adaptive
// prior families are carried separately as PriorState in the v2 framing,
// which keeps default-GM checkpoint files byte-identical to the original
// format.
type RegState struct {
	Name string
	GM   core.Snapshot
}

// PriorState is one non-GM adaptive prior's learned state, tagged with its
// family so resume can reject cross-family restores with a clear error.
type PriorState struct {
	Name string
	Snap core.PriorSnapshot
}

// BBState is the Barzilai–Borwein schedule's cross-epoch state (LogReg only).
type BBState struct {
	PrevW    []float64
	PrevAvgG []float64
	LR       float64
}

// State is a complete training-state checkpoint at an epoch boundary. It
// deliberately contains no wall-clock data, so serializing the same logical
// training position always produces the same bytes (the CI resume job
// compares final checkpoints of an interrupted-and-resumed run against an
// uninterrupted one with cmp).
type State struct {
	// Kind is the trainer family the state belongs to (KindLogReg or
	// KindNetwork; the sequential and data-parallel network trainers share
	// KindNetwork and can resume each other at equal effective shard size).
	Kind string
	// Epoch is the number of completed epochs; resume continues at this
	// 0-based epoch index.
	Epoch int
	// Done marks a checkpoint written at normal completion; resuming it is
	// refused.
	Done bool

	// Configuration echo, validated on resume so a checkpoint cannot be
	// silently continued under a different optimization recipe.
	Seed            uint64
	Epochs          int
	BatchSize       int
	ShardSize       int
	LearningRate    float64
	Momentum        float64
	LRDecayEvery    int
	LRDecayFactor   float64
	Augment         bool
	BarzilaiBorwein bool

	// Groups carries every parameter group (weights and momentum) in
	// network order; Stats the batch-norm running statistics in layer
	// order; Regs the learned GM state per regularized group.
	Groups []GroupState
	Stats  []StatState
	Regs   []RegState

	// LogReg-only state: the unregularized bias and its velocity, the row
	// permutation as of the epoch boundary, and the shuffle RNG position.
	Bias    float64
	BiasVel float64
	Rows    []int
	RNG     uint64
	BB      *BBState

	// EpochLoss is the training-loss history up to Epoch (wall-clock epoch
	// times are not checkpointed; a resumed History reports zero durations
	// for pre-resume epochs).
	EpochLoss []float64

	// priors carries the learned state of non-GM adaptive prior families.
	// It is deliberately unexported: gob never sees it, so a run whose
	// priors are all GM (or stateless) encodes the exact State payload —
	// and therefore the exact checkpoint bytes — the original format
	// produced. Runs with non-GM adaptive state are written in the v2
	// framing, which wraps State and this slice together.
	priors []PriorState
}

// Priors returns the non-GM adaptive prior states carried by a v2
// checkpoint (nil for default-GM and stateless runs).
func (s *State) Priors() []PriorState { return s.priors }

// SetPriors attaches non-GM adaptive prior state, switching the checkpoint
// to the v2 framing. Used by trainers at capture time.
func (s *State) SetPriors(p []PriorState) { s.priors = p }

// PriorFamily reports which prior family the checkpoint's adaptive state
// belongs to: "gm" for legacy/GM checkpoints, the family tag for v2
// checkpoints, and "" when the run carried no adaptive state at all (fixed
// baselines and stateless degenerate priors like SLOPE).
func (s *State) PriorFamily() string {
	if len(s.priors) > 0 {
		return s.priors[0].Snap.Family
	}
	if len(s.Regs) > 0 {
		return core.FamilyGM
	}
	return ""
}

// ckptMagic leads every checkpoint file, followed by the SHA-256 of the gob
// payload — a truncated or half-written file fails the hash check and is
// rejected by LoadState instead of being resumed.
const ckptMagic = "gmregckpt1\n"

// ckptMagic2 leads checkpoints that carry non-GM adaptive prior state
// (stateV2 payload). Default-GM runs keep the v1 framing so their files
// stay byte-identical to pre-Prior-interface checkpoints.
const ckptMagic2 = "gmregckpt2\n"

// stateV2 is the v2 checkpoint payload: the unchanged v1 State plus the
// family-tagged prior states. Kept as a wrapper (not new State fields)
// because gob type descriptors embed every exported field name — any new
// field in State would change the bytes of v1 files.
type stateV2 struct {
	Base   State
	Priors []PriorState
}

// CkptSuffix is the checkpoint file extension.
const CkptSuffix = ".gmckpt"

// CheckpointName returns the canonical file name for a checkpoint after
// epoch completed epochs. Zero-padding makes lexical order chronological,
// which retention pruning and LatestCheckpoint rely on.
func CheckpointName(epoch int) string {
	return fmt.Sprintf("ckpt-%06d%s", epoch, CkptSuffix)
}

// WriteFile serializes the state to path atomically (temp file + rename via
// the store's snapshot path) and returns the file size.
func (s *State) WriteFile(path string) (int64, error) {
	magic := ckptMagic
	var payload bytes.Buffer
	if len(s.priors) > 0 {
		magic = ckptMagic2
		if err := gob.NewEncoder(&payload).Encode(&stateV2{Base: *s, Priors: s.priors}); err != nil {
			return 0, fmt.Errorf("train: encoding checkpoint: %w", err)
		}
	} else if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return 0, fmt.Errorf("train: encoding checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	n := int64(len(magic) + len(sum) + payload.Len())
	err := store.WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, magic); err != nil {
			return err
		}
		if _, err := w.Write(sum[:]); err != nil {
			return err
		}
		_, err := w.Write(payload.Bytes())
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("train: writing checkpoint %s: %w", path, err)
	}
	return n, nil
}

// LoadState reads a checkpoint written by WriteFile, verifying the payload
// hash so partial or tampered files are rejected rather than resumed.
func LoadState(path string) (*State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Both magics are the same length, so the framing is checked uniformly.
	v2 := false
	switch {
	case len(raw) >= len(ckptMagic)+sha256.Size && string(raw[:len(ckptMagic)]) == ckptMagic:
	case len(raw) >= len(ckptMagic2)+sha256.Size && string(raw[:len(ckptMagic2)]) == ckptMagic2:
		v2 = true
	default:
		return nil, fmt.Errorf("train: %s is not a gmreg checkpoint", path)
	}
	var sum [sha256.Size]byte
	copy(sum[:], raw[len(ckptMagic):])
	payload := raw[len(ckptMagic)+sha256.Size:]
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("train: checkpoint %s fails its integrity hash (truncated or corrupt write)", path)
	}
	if v2 {
		var v stateV2
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
			return nil, fmt.Errorf("train: decoding checkpoint %s: %w", path, err)
		}
		st := v.Base
		st.priors = v.Priors
		return &st, nil
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("train: decoding checkpoint %s: %w", path, err)
	}
	return &st, nil
}

// LatestCheckpoint returns the newest checkpoint file in dir (highest epoch
// number), or an error when the directory holds none.
func LatestCheckpoint(dir string) (string, error) {
	names, err := checkpointNames(dir)
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("train: no checkpoints in %s", dir)
	}
	return filepath.Join(dir, names[len(names)-1]), nil
}

// checkpointNames lists dir's checkpoint files in ascending (chronological)
// name order.
func checkpointNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, CkptSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// CheckpointPolicy configures periodic training-state checkpoints and
// resume. The zero policy (or a nil pointer in SGDConfig) disables
// checkpointing entirely.
type CheckpointPolicy struct {
	// Every writes a checkpoint after every Every completed epochs (plus a
	// final one, marked Done, at normal completion). 0 disables writing.
	Every int
	// Dir is the directory checkpoint files are written to (created if
	// missing). Required when Every > 0.
	Dir string
	// Retain bounds how many checkpoint files are kept; older files are
	// pruned after each write. 0 means the default of 3.
	Retain int
	// Resume, when non-nil, restores this state before the first epoch and
	// continues training at State.Epoch. The state's configuration echo
	// must match the run's SGDConfig.
	Resume *State
	// DieAtEpoch aborts training with ErrFaultInjected after that many
	// completed epochs (after the epoch's checkpoint decision) — the fault
	// injection hook behind `gmreg-train -die-at-epoch`. 0 disables.
	DieAtEpoch int
}

// validate reports the first problem with the policy, or nil.
func (p *CheckpointPolicy) validate() error {
	switch {
	case p == nil:
		return nil
	case p.Every < 0:
		return fmt.Errorf("train: checkpoint Every must be non-negative, got %d", p.Every)
	case p.Retain < 0:
		return fmt.Errorf("train: checkpoint Retain must be non-negative, got %d", p.Retain)
	case p.DieAtEpoch < 0:
		return fmt.Errorf("train: DieAtEpoch must be non-negative, got %d", p.DieAtEpoch)
	case p.Every > 0 && p.Dir == "":
		return fmt.Errorf("train: checkpoint policy needs a directory when Every > 0")
	case p.Resume != nil && p.Resume.Done:
		return fmt.Errorf("train: refusing to resume a checkpoint of a completed run (epoch %d)", p.Resume.Epoch)
	default:
		return nil
	}
}

// Checkpoint observability: write/resume counters and a write-latency
// histogram in the process registry, registered on first use so binaries
// that never checkpoint don't export the families.
var (
	ckptMetricsOnce sync.Once
	ckptWrites      *obs.Counter
	ckptBytes       *obs.Counter
	ckptResumes     *obs.Counter
	ckptSeconds     *obs.Histogram
)

func ckptMetrics() {
	ckptMetricsOnce.Do(func() {
		ckptWrites = obs.Default.Counter("gmreg_train_ckpt_writes_total",
			"Training-state checkpoints written.")
		ckptBytes = obs.Default.Counter("gmreg_train_ckpt_bytes_total",
			"Total serialized checkpoint bytes written.")
		ckptResumes = obs.Default.Counter("gmreg_train_resumes_total",
			"Training runs resumed from a checkpoint.")
		ckptSeconds = obs.Default.Histogram("gmreg_train_ckpt_write_seconds",
			"Checkpoint serialization + atomic-write latency.", obs.DefLatencyBuckets)
	})
}

// ckptRunner drives one trainer's checkpoint schedule. A nil runner (no
// policy) no-ops on every call, mirroring telemetry's nil-receiver pattern.
type ckptRunner struct {
	pol  CheckpointPolicy
	sink obs.Sink
}

// newCkptRunner builds the runner, or nil when the policy is absent/inert.
func newCkptRunner(pol *CheckpointPolicy, sink obs.Sink) *ckptRunner {
	if pol == nil || (pol.Every <= 0 && pol.DieAtEpoch <= 0) {
		return nil
	}
	c := &ckptRunner{pol: *pol, sink: sink}
	if c.pol.Retain <= 0 {
		c.pol.Retain = 3
	}
	return c
}

// resumed notes a successful restore in the process metrics.
func resumed() {
	ckptMetrics()
	ckptResumes.Inc()
}

// AfterEpoch runs the checkpoint decision for a just-completed epoch count
// (1-based): write if on the Every boundary, then inject the configured
// fault. Ordering matters — dying after the write models a crash right
// after a successful checkpoint, dying off-boundary models losing partial
// progress; the harness exercises both.
func (c *ckptRunner) AfterEpoch(done int, capture func() *State) error {
	if c == nil {
		return nil
	}
	if c.pol.Every > 0 && done%c.pol.Every == 0 {
		if err := c.write(done, false, capture); err != nil {
			return err
		}
	}
	if c.pol.DieAtEpoch > 0 && done == c.pol.DieAtEpoch {
		return fmt.Errorf("%w after %d epochs", ErrFaultInjected, done)
	}
	return nil
}

// Finish writes the final checkpoint (Done=true) at normal completion, so
// every checkpointed run ends with a loadable-but-unresumable state whose
// bytes are comparable across runs.
func (c *ckptRunner) Finish(done int, capture func() *State) error {
	if c == nil || c.pol.Every <= 0 {
		return nil
	}
	return c.write(done, true, capture)
}

func (c *ckptRunner) write(done int, final bool, capture func() *State) error {
	ckptMetrics()
	start := time.Now()
	st := capture()
	st.Epoch = done
	st.Done = final
	if err := os.MkdirAll(c.pol.Dir, 0o755); err != nil {
		return fmt.Errorf("train: creating checkpoint dir: %w", err)
	}
	path := filepath.Join(c.pol.Dir, CheckpointName(done))
	n, err := st.WriteFile(path)
	if err != nil {
		return err
	}
	ckptWrites.Inc()
	ckptBytes.Add(uint64(n))
	ckptSeconds.Observe(time.Since(start).Seconds())
	if c.sink != nil {
		c.sink.Emit(obs.Ckpt{Epoch: done, Path: path, Bytes: n, Final: final})
	}
	c.prune()
	return nil
}

// prune removes the oldest checkpoints beyond Retain. Best-effort: a failed
// remove never aborts training.
func (c *ckptRunner) prune() {
	names, err := checkpointNames(c.pol.Dir)
	if err != nil {
		return
	}
	for len(names) > c.pol.Retain {
		os.Remove(filepath.Join(c.pol.Dir, names[0]))
		names = names[1:]
	}
}

// f64s returns a copy of a float slice (nil stays nil, so capture is
// byte-stable across runs).
func f64s(x []float64) []float64 { return append([]float64(nil), x...) }

// captureNetwork snapshots a network trainer's full training state at an
// epoch boundary. shardSize is the effective micro-shard size (after the
// trainer's defaulting), part of the numeric contract the resume validates.
// Every member set of NetworkOver shares it: the loop holds the
// authoritative model, the optimizer, and the stream position convention
// (completed-epochs × batches).
func captureNetwork(cfg SGDConfig, shardSize int, net *nn.Network, opt *optimizer, hist *History) *State {
	st := &State{
		Kind:          KindNetwork,
		Seed:          cfg.Seed,
		Epochs:        cfg.Epochs,
		BatchSize:     cfg.BatchSize,
		ShardSize:     shardSize,
		LearningRate:  cfg.LearningRate,
		Momentum:      cfg.Momentum,
		LRDecayEvery:  cfg.LRDecayEvery,
		LRDecayFactor: cfg.LRDecayFactor,
		Augment:       cfg.Augment,
		EpochLoss:     f64s(hist.EpochLoss),
	}
	vels := opt.vels
	for i, p := range opt.Params {
		st.Groups = append(st.Groups, GroupState{Name: p.Name, W: f64s(p.W), Vel: f64s(vels[i])})
	}
	for _, b := range net.BatchNorms() {
		m, v := b.Stats()
		st.Stats = append(st.Stats, StatState{Name: b.Name(), Mean: f64s(m), Var: f64s(v)})
	}
	st.Regs, st.priors = captureRegs(opt.Regs)
	return st
}

// captureRegs snapshots every adaptive regularizer in sorted group order,
// so serialization order is independent of map iteration. GMs go into the
// legacy RegState list (v1 framing, byte-identical files); other stateful
// prior families into the family-tagged PriorState list (v2 framing);
// stateless priors and fixed baselines have no entry, as before.
func captureRegs(regs map[string]reg.Regularizer) ([]RegState, []PriorState) {
	names := make([]string, 0, len(regs))
	for name := range regs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []RegState
	var priors []PriorState
	for _, name := range names {
		switch r := regs[name].(type) {
		case *core.GM:
			out = append(out, RegState{Name: name, GM: r.Snapshot()})
		case core.Prior:
			if r.Stateful() {
				priors = append(priors, PriorState{Name: name, Snap: r.PriorSnapshot()})
			}
		}
	}
	return out, priors
}

// restoreNetwork loads a KindNetwork state into a freshly built trainer:
// weights, momentum, batch-norm statistics, and GM state, after validating
// that the run's configuration matches the checkpoint's echo. hist is
// seeded with the checkpointed loss history (epoch wall times restart at
// zero — they are not part of the determinism contract).
func restoreNetwork(st *State, cfg SGDConfig, shardSize int, net *nn.Network, opt *optimizer, hist *History) error {
	if err := checkEcho(st, KindNetwork, cfg, shardSize); err != nil {
		return err
	}
	vels := opt.vels
	if len(st.Groups) != len(opt.Params) {
		return fmt.Errorf("train: checkpoint has %d parameter groups, network has %d",
			len(st.Groups), len(opt.Params))
	}
	for i, p := range opt.Params {
		g := st.Groups[i]
		if g.Name != p.Name || len(g.W) != len(p.W) || len(g.Vel) != len(vels[i]) {
			return fmt.Errorf("train: checkpoint group %d is %q[%d], network has %q[%d]",
				i, g.Name, len(g.W), p.Name, len(p.W))
		}
		copy(p.W, g.W)
		copy(vels[i], g.Vel)
	}
	bns := net.BatchNorms()
	if len(st.Stats) != len(bns) {
		return fmt.Errorf("train: checkpoint has %d batch-norm layers, network has %d",
			len(st.Stats), len(bns))
	}
	for i, b := range bns {
		s := st.Stats[i]
		m, v := b.Stats()
		if s.Name != b.Name() || len(s.Mean) != len(m) || len(s.Var) != len(v) {
			return fmt.Errorf("train: checkpoint batch-norm %d is %q, network has %q", i, s.Name, b.Name())
		}
		copy(m, s.Mean)
		copy(v, s.Var)
	}
	if err := restoreRegs(st, opt.Regs); err != nil {
		return err
	}
	restoreHistory(hist, st)
	resumed()
	return nil
}

// restoreRegs loads adaptive prior snapshots back into the trainer's
// regularizers, requiring an exact match between the checkpoint's adaptive
// groups (and their families) and the factory's — resuming a GM run under a
// fixed baseline, or a Laplace checkpoint under a Student-t run, is a
// configuration error with a one-line explanation, not a silent fallback.
func restoreRegs(st *State, regs map[string]reg.Regularizer) error {
	var gms, others int
	for _, r := range regs {
		switch p := r.(type) {
		case *core.GM:
			gms++
		case core.Prior:
			if p.Stateful() {
				others++
			}
		}
	}
	ckptFam, runFam := st.PriorFamily(), runPriorFamily(regs)
	if ckptFam != runFam {
		return fmt.Errorf("train: checkpoint was trained with prior family %q but this run uses %q — resume with the prior the checkpoint was trained with",
			familyLabel(ckptFam), familyLabel(runFam))
	}
	if gms != len(st.Regs) || others != len(st.priors) {
		return fmt.Errorf("train: checkpoint has %d adaptive regularizers, run has %d — resume with the regularizer the checkpoint was trained with",
			len(st.Regs)+len(st.priors), gms+others)
	}
	for _, s := range st.Regs {
		g, ok := regs[s.Name].(*core.GM)
		if !ok {
			return fmt.Errorf("train: checkpoint has GM state for group %q but the run's regularizer there is not a GM", s.Name)
		}
		if err := g.Restore(s.GM); err != nil {
			return fmt.Errorf("train: restoring GM for group %q: %w", s.Name, err)
		}
	}
	for _, s := range st.priors {
		p, ok := regs[s.Name].(core.Prior)
		if !ok || !p.Stateful() {
			return fmt.Errorf("train: checkpoint has %s prior state for group %q but the run's regularizer there is stateless", s.Snap.Family, s.Name)
		}
		if err := p.RestorePrior(s.Snap); err != nil {
			return fmt.Errorf("train: restoring prior for group %q: %w", s.Name, err)
		}
	}
	return nil
}

// runPriorFamily reports the family of a run's stateful priors ("" when all
// priors are stateless), mirroring State.PriorFamily for the live side of a
// resume. Factories build one family per run, so the first stateful prior
// decides.
func runPriorFamily(regs map[string]reg.Regularizer) string {
	for _, r := range regs {
		if p, ok := r.(core.Prior); ok && p.Stateful() {
			return p.Family()
		}
	}
	return ""
}

// familyLabel renders "" (no adaptive state: fixed baselines, SLOPE) as a
// readable word in resume errors.
func familyLabel(f string) string {
	if f == "" {
		return "fixed"
	}
	return f
}

// restoreHistory seeds a History with the checkpointed losses; wall-clock
// entries are zeroed for the restored prefix.
func restoreHistory(hist *History, st *State) {
	hist.EpochLoss = f64s(st.EpochLoss)
	hist.EpochTime = make([]time.Duration, len(st.EpochLoss))
}

// captureLogReg snapshots the logistic-regression trainer's state at an
// epoch boundary: weights + bias and their velocities, the row permutation
// and shuffle-RNG position, the optional Barzilai–Borwein state, the
// regularizer, and the loss history.
func captureLogReg(cfg SGDConfig, sgd *LogRegSGD, rng *tensor.RNG, rows []int, bb *BBState, hist *History) *State {
	regStates, priorStates := captureRegs(map[string]reg.Regularizer{"weights": sgd.prior})
	st := &State{
		Kind:            KindLogReg,
		Seed:            cfg.Seed,
		Epochs:          cfg.Epochs,
		BatchSize:       cfg.BatchSize,
		LearningRate:    cfg.LearningRate,
		Momentum:        cfg.Momentum,
		LRDecayEvery:    cfg.LRDecayEvery,
		LRDecayFactor:   cfg.LRDecayFactor,
		BarzilaiBorwein: cfg.BarzilaiBorwein,
		Groups:          []GroupState{{Name: "weights", W: f64s(sgd.model.W), Vel: f64s(sgd.vel)}},
		Regs:            regStates,
		Bias:            sgd.model.B,
		BiasVel:         sgd.velB,
		Rows:            append([]int(nil), rows...),
		RNG:             rng.State(),
		BB:              bb,
		EpochLoss:       f64s(hist.EpochLoss),
	}
	st.priors = priorStates
	return st
}

// restoreLogReg loads a KindLogReg state back into a freshly initialized
// trainer. rows and vel are overwritten in place; the RNG resumes at the
// captured stream position.
func restoreLogReg(st *State, cfg SGDConfig, sgd *LogRegSGD, rng *tensor.RNG, rows []int, hist *History) error {
	if err := checkEcho(st, KindLogReg, cfg, 0); err != nil {
		return err
	}
	if len(st.Groups) != 1 || st.Groups[0].Name != "weights" {
		return fmt.Errorf("train: logreg checkpoint must hold exactly one %q group", "weights")
	}
	g, model := st.Groups[0], sgd.model
	if len(g.W) != len(model.W) || len(g.Vel) != len(sgd.vel) {
		return fmt.Errorf("train: checkpoint has %d weights, model has %d", len(g.W), len(model.W))
	}
	if len(st.Rows) != len(rows) {
		return fmt.Errorf("train: checkpoint shuffled %d training rows, run has %d — dataset or split changed",
			len(st.Rows), len(rows))
	}
	copy(model.W, g.W)
	copy(sgd.vel, g.Vel)
	model.B = st.Bias
	sgd.velB = st.BiasVel
	copy(rows, st.Rows)
	rng.SetState(st.RNG)
	if err := restoreRegs(st, map[string]reg.Regularizer{"weights": sgd.prior}); err != nil {
		return err
	}
	restoreHistory(hist, st)
	resumed()
	return nil
}

// checkEcho validates a checkpoint's configuration echo against the run.
func checkEcho(st *State, kind string, cfg SGDConfig, shardSize int) error {
	if st.Kind != kind {
		return fmt.Errorf("train: checkpoint is a %q state, this trainer needs %q", st.Kind, kind)
	}
	if st.Done {
		return fmt.Errorf("train: checkpoint marks a completed run (epoch %d); nothing to resume", st.Epoch)
	}
	if st.Epoch < 1 || st.Epoch >= st.Epochs {
		return fmt.Errorf("train: checkpoint epoch %d out of range for %d-epoch run", st.Epoch, st.Epochs)
	}
	if len(st.EpochLoss) != st.Epoch {
		return fmt.Errorf("train: checkpoint history has %d epochs, cursor says %d", len(st.EpochLoss), st.Epoch)
	}
	mismatch := func(field string, want, got any) error {
		return fmt.Errorf("train: checkpoint %s %v does not match run's %v — resume must use the original configuration",
			field, want, got)
	}
	switch {
	case st.Seed != cfg.Seed:
		return mismatch("seed", st.Seed, cfg.Seed)
	case st.Epochs != cfg.Epochs:
		return mismatch("epochs", st.Epochs, cfg.Epochs)
	case st.BatchSize != cfg.BatchSize:
		return mismatch("batch size", st.BatchSize, cfg.BatchSize)
	case st.ShardSize != shardSize:
		return mismatch("effective shard size", st.ShardSize, shardSize)
	case st.LearningRate != cfg.LearningRate:
		return mismatch("learning rate", st.LearningRate, cfg.LearningRate)
	case st.Momentum != cfg.Momentum:
		return mismatch("momentum", st.Momentum, cfg.Momentum)
	case st.LRDecayEvery != cfg.LRDecayEvery:
		return mismatch("LR decay interval", st.LRDecayEvery, cfg.LRDecayEvery)
	case st.LRDecayFactor != cfg.LRDecayFactor:
		return mismatch("LR decay factor", st.LRDecayFactor, cfg.LRDecayFactor)
	case st.Augment != cfg.Augment:
		return mismatch("augmentation", st.Augment, cfg.Augment)
	case st.BarzilaiBorwein != cfg.BarzilaiBorwein:
		return mismatch("Barzilai–Borwein", st.BarzilaiBorwein, cfg.BarzilaiBorwein)
	}
	return nil
}
