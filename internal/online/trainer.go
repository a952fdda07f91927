package online

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"sync"
	"time"

	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/obs"
	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// Config tunes one online training run.
type Config struct {
	// Store is the snapshot file checkpoints are published to — the same
	// file a running gmreg-serve watches. Required.
	Store string
	// Key is the model key published under. Required.
	Key string

	// Batch is the samples gathered per SGD step. Defaults to 16.
	Batch int
	// LR is the SGD step size. Defaults to 0.05.
	LR float64
	// Momentum is the classical momentum coefficient. Defaults to 0.
	Momentum float64
	// Decay is the online-EM sufficient-statistic retention ρ ∈ [0, 1)
	// (core.OnlineGM). Defaults to 0.9.
	Decay float64
	// Gamma scales the GM's Gamma-prior rate (core.Config.Gamma).
	// 0 keeps the paper default.
	Gamma float64
	// K is the (pinned) mixture component count. 0 keeps the paper default.
	K int

	// PublishEvery publishes a serving checkpoint every that many SGD
	// steps. Defaults to 25.
	PublishEvery int
	// MaxSamples, when positive, ends the run after consuming that many
	// samples (a final checkpoint is still published). 0 streams until the
	// source ends or ctx is cancelled.
	MaxSamples int

	// DriftWindow is the steps per drift-detector window; DriftThreshold
	// the mean |Δ(π, log λ)| between consecutive windows that counts as
	// drift. Defaults: 20 and 0.3.
	DriftWindow int
	// DriftThreshold triggers a drift event when exceeded.
	DriftThreshold float64
	// DriftBurnIn suppresses the first that many window comparisons, while
	// online EM is still converging from its init (that transient scores
	// like drift). Defaults to 2; negative disables burn-in.
	DriftBurnIn int

	// Seed drives weight initialization (when no warm-start checkpoint is
	// found).
	Seed uint64
	// Meta is merged into every published checkpoint's metadata.
	Meta map[string]string

	// Sink, when non-nil, receives publish/drift events.
	Sink obs.Sink
	// Metrics, when non-nil, registers the gmreg_online_* series.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.Decay == 0 {
		c.Decay = 0.9
	}
	if c.PublishEvery <= 0 {
		c.PublishEvery = 25
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 20
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.3
	}
	if c.DriftBurnIn == 0 {
		c.DriftBurnIn = 2
	}
	if c.Sink == nil {
		c.Sink = obs.Discard
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Store == "":
		return errors.New("online: Store is required")
	case c.Key == "":
		return errors.New("online: Key is required")
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("online: momentum must be in [0,1), got %v", c.Momentum)
	case c.Decay < 0 || c.Decay >= 1:
		return fmt.Errorf("online: decay must be in [0,1), got %v", c.Decay)
	case c.MaxSamples < 0:
		return fmt.Errorf("online: MaxSamples must be non-negative, got %d", c.MaxSamples)
	default:
		return nil
	}
}

// Result summarizes one online run.
type Result struct {
	// Samples and Steps count stream consumption.
	Samples int
	Steps   int
	// Publishes and Drifts count emitted checkpoints and drift detections.
	Publishes int
	Drifts    int
	// WarmStarted reports whether initial weights came from an existing
	// checkpoint in the store (the fine-tune path) instead of random init.
	WarmStarted bool
	// LastVersion is the final published store version.
	LastVersion store.Version
	// LastLoss is the final step's minibatch NLL.
	LastLoss float64
}

// metrics bundles the gmreg_online_* series.
type metrics struct {
	samples   *obs.Counter
	steps     *obs.Counter
	publishes *obs.Counter
	drifts    *obs.Counter
	pubLat    *obs.Histogram
	lastSeq   *obs.Gauge
	loss      *obs.Gauge
}

func newMetrics(r *obs.Registry, key string) *metrics {
	if r == nil {
		return nil
	}
	l := obs.L("model", key)
	return &metrics{
		samples:   r.Counter("gmreg_online_samples_total", "Stream samples consumed by the online trainer.", l),
		steps:     r.Counter("gmreg_online_steps_total", "Online SGD steps taken.", l),
		publishes: r.Counter("gmreg_online_publish_total", "Serving checkpoints published to the store.", l),
		drifts:    r.Counter("gmreg_online_drift_total", "Mixture-shift detections (π/λ window moved beyond threshold).", l),
		pubLat:    r.Histogram("gmreg_online_publish_seconds", "Checkpoint capture+store+snapshot latency.", obs.DefLatencyBuckets, l),
		lastSeq:   r.Gauge("gmreg_online_published_seq", "Store version sequence of the last publish.", l),
		loss:      r.Gauge("gmreg_online_last_loss", "Most recent minibatch NLL.", l),
	}
}

// Run trains a logistic-regression model with the online-EM GM prior on the
// sample stream from src until the stream ends, MaxSamples is reached, or
// ctx is cancelled — publishing a serving checkpoint every PublishEvery
// steps and a final one at exit. The feature dimension is learned from the
// first sample; if the store already holds a logreg checkpoint of that
// dimension under Key, its weights warm-start the run (fine-tuning the
// deployed model instead of restarting from noise). A store file or a Key
// checkpoint that exists but cannot be decoded is an error, returned before
// any step or publish.
func Run(ctx context.Context, src Source, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	// The first sample fixes the feature dimension for the whole stream.
	first, err := src.Next(ctx)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errors.New("online: stream ended before the first sample")
		}
		return nil, err
	}
	m := len(first.Features)
	if m == 0 {
		return nil, errors.New("online: first sample has no features")
	}

	rng := tensor.NewRNG(cfg.Seed)
	const initStd = 0.1
	model := models.NewLogisticRegression(m, initStd, rng)
	warm, err := warmStart(cfg.Store, cfg.Key, model)
	if err != nil {
		return nil, err
	}
	res := &Result{WarmStarted: warm}

	gmCfg := core.DefaultConfig(initStd)
	if cfg.Gamma > 0 {
		gmCfg.Gamma = cfg.Gamma
	}
	if cfg.K > 0 {
		gmCfg.K = cfg.K
	}
	prior, err := core.NewOnlineGM(m, gmCfg, cfg.Decay)
	if err != nil {
		return nil, err
	}
	// One "epoch" of the lazy schedule is one publish interval: warm-up
	// (full E/M every step) spans the first intervals, then the cadence
	// amortizes exactly as in offline Algorithm 2.
	prior.SetBatchesPerEpoch(cfg.PublishEvery)

	met := newMetrics(cfg.Metrics, cfg.Key)
	det := newDriftDetector(cfg.DriftWindow, cfg.DriftThreshold, cfg.DriftBurnIn)

	// Batch assembly rides the data-pipeline prefetcher: fill gathers the
	// next minibatch from the stream into a recycled slot while the SGD
	// step runs on the previous one.
	b := newBatcher(ctx, src, m, cfg.Batch, cfg.MaxSamples, first)
	pf := data.NewPrefetcherFunc(len(b.slots), b.fill)
	defer pf.Close()

	sgd := train.NewLogRegSGD(model, prior, cfg.Momentum)
	rows := make([][]float64, 0, cfg.Batch)
	// LossGrad indexes a whole dataset through a row list; each stream batch
	// is its own dataset, so the row list is just 0..n-1.
	rowIdx := make([]int, cfg.Batch)
	for i := range rowIdx {
		rowIdx[i] = i
	}
	stepsSincePublish := 0

	for {
		x, y := pf.Next()
		if x == nil {
			break
		}
		n := len(y)
		rows = rows[:0]
		for i := 0; i < n; i++ {
			rows = append(rows, x.Data[i*m:(i+1)*m])
		}
		// The MAP objective weights the prior by 1/N; online, N is the
		// evidence so far, so regularization fades as the stream grows —
		// and re-tightens only through the mixture itself adapting.
		res.Samples += n
		loss := sgd.Step(rows, y, rowIdx[:n], 1/float64(res.Samples), cfg.LR)
		res.Steps++
		res.LastLoss = loss
		stepsSincePublish++
		if met != nil {
			met.samples.Add(uint64(n))
			met.steps.Inc()
			met.loss.Set(loss)
		}

		pi, lambda := prior.Mixture()
		if score, drifted := det.observe(pi, lambda); drifted {
			res.Drifts++
			if met != nil {
				met.drifts.Inc()
			}
			cfg.Sink.Emit(obs.Drift{
				Model: cfg.Key, Step: res.Steps, Samples: res.Samples,
				Score: score, Threshold: cfg.DriftThreshold,
				Pi: pi, Lambda: lambda,
			})
		}

		if stepsSincePublish >= cfg.PublishEvery {
			if err := publish(cfg, model, prior, res, met, false); err != nil {
				return res, err
			}
			stepsSincePublish = 0
		}
	}
	if err := b.err(); err != nil {
		return res, err
	}
	if res.Steps == 0 {
		return res, errors.New("online: stream ended before the first full step")
	}
	if stepsSincePublish > 0 || res.Publishes == 0 {
		if err := publish(cfg, model, prior, res, met, true); err != nil {
			return res, err
		}
	}
	return res, nil
}

// publish captures the current model+mixture as a serving checkpoint,
// appends it as a new version of cfg.Key, and atomically rewrites the
// snapshot file the serving side watches.
func publish(cfg Config, model *models.LogisticRegression, prior *core.OnlineGM, res *Result, met *metrics, final bool) error {
	t0 := time.Now()
	meta := map[string]string{
		"mode":    "online",
		"step":    strconv.Itoa(res.Steps),
		"samples": strconv.Itoa(res.Samples),
		"decay":   strconv.FormatFloat(prior.Decay(), 'g', -1, 64),
	}
	for k, v := range cfg.Meta {
		meta[k] = v
	}
	spec := models.Spec{Family: "logreg", In: len(model.W)}
	regs := []train.RegState{{Name: "weights", GM: prior.GM().Snapshot()}}
	ckpt, err := serve.NewCheckpoint(spec, models.LogRegNetwork(model), regs, meta)
	if err != nil {
		return err
	}
	v, err := serve.PublishCheckpoint(cfg.Store, cfg.Key, ckpt)
	if err != nil {
		return err
	}
	lat := time.Since(t0).Seconds()
	res.Publishes++
	res.LastVersion = v
	if met != nil {
		met.publishes.Inc()
		met.pubLat.Observe(lat)
		met.lastSeq.Set(float64(v.Seq))
	}
	cfg.Sink.Emit(obs.Publish{
		Model: cfg.Key, Seq: v.Seq, Hash: v.Hash,
		Step: res.Steps, Samples: res.Samples,
		LatencySec: lat, Final: final,
	})
	return nil
}

// warmStart loads the latest logreg checkpoint of matching dimension for key
// from the snapshot at path into model, reporting whether it did. A missing
// file or key, or a checkpoint of another family or dimension, means a cold
// start. A store or checkpoint that exists but cannot be read or decoded is
// an error: starting cold would publish a fresh model over the deployed one.
func warmStart(path, key string, model *models.LogisticRegression) (bool, error) {
	st, err := store.LoadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("online: warm start: %w", err)
	}
	blob, _, err := st.Get(key)
	if err != nil {
		return false, nil // the key's only failure: not stored yet
	}
	ckpt, err := serve.UnmarshalCheckpoint(blob)
	if err != nil {
		return false, fmt.Errorf("online: warm start from %q: %w", key, err)
	}
	if ckpt.Spec.Family != "logreg" || ckpt.Spec.In != len(model.W) {
		return false, nil
	}
	net, err := ckpt.Build()
	if err != nil {
		return false, fmt.Errorf("online: warm start from %q: %w", key, err)
	}
	l, err := models.LogRegFromNetwork(net)
	if err != nil {
		return false, fmt.Errorf("online: warm start from %q: %w", key, err)
	}
	copy(model.W, l.W)
	model.B = l.B
	return true, nil
}

// batcher assembles stream samples into recycled minibatch slots for the
// data.Prefetcher. fill runs on the prefetch goroutine; the consumer owns a
// returned slot until it trades it back in, per the prefetcher contract.
type batcher struct {
	ctx   context.Context
	src   Source
	m     int
	batch int
	max   int // 0 = unbounded
	taken int

	pre   *Sample // the dimension-probe sample, consumed by the first fill
	slots [2]batchSlot

	mu   sync.Mutex
	ferr error
}

type batchSlot struct {
	flat []float64
	y    []int
}

func newBatcher(ctx context.Context, src Source, m, batch, max int, first Sample) *batcher {
	b := &batcher{ctx: ctx, src: src, m: m, batch: batch, max: max, pre: &first}
	for i := range b.slots {
		b.slots[i] = batchSlot{flat: make([]float64, batch*m), y: make([]int, batch)}
	}
	return b
}

// err returns the error that ended the stream, if any (dimension mismatch or
// a source failure other than clean EOF / cancellation).
func (b *batcher) err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ferr
}

func (b *batcher) fail(err error) {
	b.mu.Lock()
	if b.ferr == nil {
		b.ferr = err
	}
	b.mu.Unlock()
}

// fill gathers up to batch samples into slot si. A partial batch is returned
// when the stream ends mid-gather; ok is false only when no sample at all
// was gathered.
func (b *batcher) fill(si int) (*tensor.Tensor, []int, bool) {
	sl := &b.slots[si]
	n := 0
	for n < b.batch {
		if b.max > 0 && b.taken >= b.max {
			break
		}
		var s Sample
		if b.pre != nil {
			s, b.pre = *b.pre, nil
		} else {
			var err error
			s, err = b.src.Next(b.ctx)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) &&
					!errors.Is(err, context.DeadlineExceeded) {
					b.fail(err)
				}
				break
			}
		}
		if len(s.Features) != b.m {
			b.fail(fmt.Errorf("online: sample has %d features, stream started with %d", len(s.Features), b.m))
			break
		}
		copy(sl.flat[n*b.m:(n+1)*b.m], s.Features)
		sl.y[n] = s.Label
		b.taken++
		n++
	}
	if n == 0 {
		return nil, nil, false
	}
	t := &tensor.Tensor{Shape: []int{n, b.m}, Data: sl.flat[:n*b.m]}
	return t, sl.y[:n], true
}
