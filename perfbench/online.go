package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gmreg"
	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/obs"
	"gmreg/internal/online"
	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

const (
	onlineKey        = "online"
	onlineFeatures   = 32
	bootstrapSamples = 2000
	// publishEvery is the SGD steps between published checkpoints. Each
	// publish rewrites and fsyncs the whole store file, which takes tens of
	// milliseconds on a virtual disk; at the shipped 25 steps the loop
	// would measure little but the disk. At 10000 steps (160k samples) a
	// publish lands every few hundred milliseconds and the store's share of
	// the loop is about a quarter.
	publishEvery = 10000
)

// onlineSource is the benchmark's sample stream: features drawn from the
// seed and labels from a fixed sparse logistic model, as fast as the
// trainer takes them, until a deadline.
type onlineSource struct {
	rng *tensor.RNG
	w   []float64
	end time.Time
}

func newOnlineSource(seed uint64, end time.Time) *onlineSource {
	rng := tensor.NewRNG(seed)
	w := make([]float64, onlineFeatures)
	for i := 0; i < onlineFeatures/4; i++ {
		w[rng.Intn(onlineFeatures)] = 2 * rng.NormFloat64()
	}
	return &onlineSource{rng: rng, w: w, end: end}
}

func (s *onlineSource) Next(ctx context.Context) (online.Sample, error) {
	if err := ctx.Err(); err != nil {
		return online.Sample{}, err
	}
	if time.Now().After(s.end) {
		return online.Sample{}, io.EOF
	}
	f := make([]float64, onlineFeatures)
	s.rng.FillNormal(f, 0, 1)
	z := tensor.Dot(s.w, f)
	label := 0
	if s.rng.Float64() < 1/(1+math.Exp(-z)) {
		label = 1
	}
	return online.Sample{Features: f, Label: label}, nil
}

func (s *onlineSource) Close() error { return nil }

// pubLog is the trainer's event sink: it timestamps every publish.
type pubLog struct {
	mu   sync.Mutex
	pubs []pubEvent
}

type pubEvent struct {
	at  time.Time
	seq int
	lat time.Duration
}

func (l *pubLog) Emit(ev obs.Event) {
	if p, ok := ev.(obs.Publish); ok {
		l.mu.Lock()
		l.pubs = append(l.pubs, pubEvent{at: time.Now(), seq: p.Seq, lat: time.Duration(p.LatencySec * float64(time.Second))})
		l.mu.Unlock()
	}
}

// setupOnline trains the first model offline — logistic regression with
// the default GM prior on samples from the same stream — writes it to a
// store file and serves it. The online trainer then warm-starts from that
// checkpoint and publishes into the same file.
func setupOnline(dir string, seed uint64, ht *handlerTrace) (*serveEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	src := newOnlineSource(seed, time.Now().Add(time.Hour))
	task := &data.Task{Name: "bootstrap"}
	rows := make([]int, bootstrapSamples)
	for i := range rows {
		s, err := src.Next(context.Background())
		if err != nil {
			return nil, err
		}
		task.X, task.Y = append(task.X, s.Features), append(task.Y, s.Label)
		rows[i] = i
	}
	fit, err := train.LogReg(task, rows, train.SGDConfig{LearningRate: 0.1, Epochs: 10, BatchSize: 32, Seed: seed}, gmreg.New())
	if err != nil {
		return nil, err
	}
	ckpt, err := serve.NewCheckpoint(models.Spec{Family: "logreg", In: onlineFeatures}, models.LogRegNetwork(fit.Model), nil, nil)
	if err != nil {
		return nil, err
	}
	st := store.New()
	if _, err := serve.PutCheckpoint(st, onlineKey, ckpt); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "online.store")
	if err := writeStore(path, st); err != nil {
		return nil, err
	}
	return startServer(path, ht)
}

// onlineSession is one stretch of the online loop: online.Run publishing
// into the store file while the server watches it and takes low-rate
// /predict traffic.
type onlineSession struct {
	run     *online.Result
	elapsed time.Duration
	pubs    []pubEvent
	load    *phase
}

func runOnlineServe(o options) (*result, error) {
	res := newResult()
	m, err := newInputs(onlineKey, models.Spec{Family: "logreg", In: onlineFeatures}, tensor.NewRNG(o.seed+1<<32), 64)
	if err != nil {
		return nil, err
	}
	var ht *handlerTrace
	if o.traced {
		ht = newHandlerTrace()
	}
	n := 0
	env, setupSecs, err := timeSetups(setupRuns, func() (*serveEnv, error) {
		n++
		return setupOnline(filepath.Join(o.workDir, fmt.Sprintf("online-%d", n)), o.seed, ht)
	}, func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.e2e["setup_s"] = setupSecs
	g := newLoadGen(env.url, []*serveModel{m})
	defer g.close()
	seed := o.seed * 1000
	g.run(lowRate, 300*time.Millisecond, seed, false) // warm connections and pools

	session := func(dur time.Duration, traced bool, seed uint64) (*onlineSession, error) {
		pubs := &pubLog{}
		s := &onlineSession{}
		var runErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := newOnlineSource(seed, time.Now().Add(dur))
			t0 := time.Now()
			s.run, runErr = online.Run(context.Background(), src, online.Config{
				Store: env.path, Key: onlineKey, Seed: seed, Sink: pubs, PublishEvery: publishEvery,
			})
			s.elapsed = time.Since(t0)
		}()
		s.load = g.run(lowRate, dur, seed+1, traced)
		wg.Wait()
		if runErr != nil {
			return nil, fmt.Errorf("online.Run: %w", runErr)
		}
		s.pubs = pubs.pubs
		// The last publish goes live within the watch interval.
		last := s.run.LastVersion.Seq
		for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if sw := env.swaps.list(); sw[len(sw)-1].seq >= last {
				break
			}
		}
		return s, nil
	}

	var sessions []*onlineSession
	if o.traced {
		plain, err := session(o.dur/4, false, seed+10)
		if err != nil {
			return nil, err
		}
		traced, err := session(o.dur*3/10, true, seed+20)
		if err != nil {
			return nil, err
		}
		sessions = []*onlineSession{plain, traced}
	} else {
		s, err := session(o.dur*9/10, false, seed+10)
		if err != nil {
			return nil, err
		}
		sessions = []*onlineSession{s}
	}

	// Every published version must load through serve, and the server's
	// swaps and each connection's responses may only move forward.
	st, err := store.LoadFile(env.path)
	if err != nil {
		return nil, err
	}
	versions, err := st.History(onlineKey)
	if err != nil {
		return nil, err
	}
	for _, v := range versions {
		blob, _, err := st.GetVersion(onlineKey, v.Seq)
		if err == nil {
			var ckpt *serve.Checkpoint
			if ckpt, err = serve.UnmarshalCheckpoint(blob); err == nil {
				_, err = ckpt.Build()
			}
		}
		if err != nil {
			res.fail("published version %d does not load: %v", v.Seq, err)
		}
	}
	swaps := env.swaps.list()
	for i := 1; i < len(swaps); i++ {
		if swaps[i].seq <= swaps[i-1].seq {
			res.fail("served version went from %d back to %d", swaps[i-1].seq, swaps[i].seq)
		}
	}
	chk := newChecker(st, []*serveModel{m})
	var pubMs, liveMs dist
	var samples int
	var trainTime time.Duration
	for i, s := range sessions {
		fmt.Println(s.load.describe(fmt.Sprintf("load%d", i+1)))
		chk.check(s.load, res)
		sent, failed, _ := s.load.counts()
		res.attempted += sent + s.run.Publishes
		res.failed += failed
		samples += s.run.Samples
		trainTime += s.elapsed
		for _, p := range s.pubs {
			pubMs.addDur(p.lat)
			live := -1.0
			for _, sw := range swaps {
				if sw.seq >= p.seq {
					live = math.Max(0, ms(sw.at.Sub(p.at)))
					break
				}
			}
			if live < 0 {
				res.fail("published version %d never went live", p.seq)
				continue
			}
			liveMs.add(live)
		}
		fmt.Printf("session %d: %d samples in %.3gs, %d publishes, %d drifts, final loss %.4g\n",
			i+1, s.run.Samples, s.elapsed.Seconds(), s.run.Publishes, s.run.Drifts, s.run.LastLoss)
	}
	plain := sessions[0].load.latency()
	res.e2e["throughput_per_s"] = float64(samples) / trainTime.Seconds()
	res.e2e["latency_p50_ms"] = plain.median()
	fi, err := os.Stat(env.path)
	if err != nil {
		return nil, err
	}
	fmt.Printf("online_samples_per_s = %.6g 1/s\n", res.e2e["throughput_per_s"])
	fmt.Printf("predict_ms.low: %s\n", plain.describe("ms"))
	fmt.Printf("publish_to_live_ms: %s\n", liveMs.describe("ms"))
	fmt.Printf("online.publish_ms: %s\n", pubMs.describe("ms"))
	fmt.Printf("store: %d versions, %.3g MB, %d swaps served\n", len(versions), float64(fi.Size())/1e6, len(swaps))

	if o.traced {
		L := res.layers
		L["online.publish_ms.p50"] = pubMs.median()
		L["store.file_mb"] = float64(fi.Size()) / 1e6
		L["store.versions"] = float64(len(versions))
		var load dist
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := store.LoadFile(env.path); err != nil {
				return nil, err
			}
			load.addDur(time.Since(t0))
		}
		L["store.load_ms"] = load.median()
		fmt.Printf("  store.load_ms: %s\n", load.describe("ms"))
		if err := serveLayers(o, res, env, []*phase{sessions[1].load}); err != nil {
			return nil, err
		}
		res.layers["trace.overhead_pct"] = overheadPct(sessions[1].load, sessions[0].load)
		if err := predictorLayers(res, env, g, chk, o.dur*3/10, seed+30); err != nil {
			return nil, err
		}
	}
	return res, nil
}
