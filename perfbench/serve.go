package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/obs"
	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
)

const (
	lowRate  = 200.0 // req/s
	highRate = 400.0 // req/s
	sloMs    = 10.0  // latency limit of the SLO knees
	// gatedShare is the share of requests allowed over sloMs in the knee
	// reported as throughput_per_s: p95 ≤ 10 ms. The p99 knee rests on about
	// twenty slow requests per probe and moved 5–19% between sets of ten
	// runs on a shared 2-CPU host; the p95 knee rests on about a hundred. The
	// p99 knee is printed beside it.
	gatedShare = 0.05
	// senders is the number of load goroutines, each with one connection:
	// the load comes from this one process and uses at most nproc (2) of
	// them, so the generator cannot outrun the host.
	senders = 2
	// reqIDHeader joins a traced client span to its handler span.
	reqIDHeader = "X-Request-Id"
)

// serveModel is one served model key and the request bodies generated for it.
type serveModel struct {
	key    string
	spec   models.Spec
	feats  [][]float64
	bodies [][]byte
}

// newInputs draws n feature vectors for key and encodes their request bodies.
func newInputs(key string, spec models.Spec, rng *tensor.RNG, n int) (*serveModel, error) {
	m := &serveModel{key: key, spec: spec}
	for i := 0; i < n; i++ {
		f := make([]float64, spec.NumFeatures())
		rng.FillNormal(f, 0, 1)
		body, err := json.Marshal(map[string]any{"model": key, "features": f})
		if err != nil {
			return nil, err
		}
		m.feats = append(m.feats, f)
		m.bodies = append(m.bodies, body)
	}
	return m, nil
}

// seededCheckpoint builds spec with weights drawn from rng.
func seededCheckpoint(spec models.Spec, rng *tensor.RNG) (*serve.Checkpoint, error) {
	net, err := spec.Build()
	if err != nil {
		return nil, err
	}
	for _, p := range net.Params() {
		rng.FillNormal(p.W, 0, 0.1)
	}
	return serve.NewCheckpoint(spec, net, nil, map[string]string{"source": "perfbench"})
}

// serveEnv is a running server as gmreg-serve runs it with no flags: the
// shipped ServerConfig defaults, the store file watched at the shipped
// interval, HTTP over loopback TCP.
type serveEnv struct {
	path   string
	srv    *serve.Server
	reg    *serve.Registry
	hs     *http.Server
	url    string
	swaps  *swapLog
	stop   context.CancelFunc
	wg     sync.WaitGroup
	hTrace *handlerTrace
}

// writeStore writes st as a snapshot file for a server to load. It skips
// store.SaveFile's fsyncs: the file is the workload's input, and a disk
// flush, whose time on a shared virtual disk varies threefold from one
// minute to the next, would make set-up time measure the disk.
func writeStore(path string, st *store.Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startServer loads the store file and serves it. A non-nil ht wraps the
// handler so requests that carry a request ID record a handler span.
func startServer(path string, ht *handlerTrace) (*serveEnv, error) {
	st, err := store.LoadFile(path)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{path: path, swaps: &swapLog{}, hTrace: ht}
	e.reg = serve.NewRegistry(st)
	// A fresh metrics registry per server keeps repeated set-ups apart;
	// every other field keeps its shipped default.
	e.srv = serve.NewServer(e.reg, serve.ServerConfig{Metrics: obs.NewRegistry(), Sink: e.swaps})
	e.reg.Refresh()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	var h http.Handler = e.srv.Handler()
	if ht != nil {
		h = ht.wrap(h)
	}
	e.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	e.url = "http://" + ln.Addr().String() + "/predict"
	ctx, cancel := context.WithCancel(context.Background())
	e.stop = cancel
	e.wg.Add(2)
	go func() {
		defer e.wg.Done()
		e.hs.Serve(ln)
	}()
	go func() {
		defer e.wg.Done()
		e.srv.Watch(ctx, path)
	}()
	return e, nil
}

// close stops the HTTP server and the watcher, waits for both, then drains
// the predictors.
func (e *serveEnv) close() {
	e.hs.Close()
	e.stop()
	e.wg.Wait()
	e.srv.Close()
}

// swapLog is the server's event sink: it timestamps every version swap.
type swapLog struct {
	mu    sync.Mutex
	swaps []swapEvent
}

type swapEvent struct {
	at  time.Time
	key string
	seq int
}

func (l *swapLog) Emit(ev obs.Event) {
	if s, ok := ev.(obs.Swap); ok {
		l.mu.Lock()
		l.swaps = append(l.swaps, swapEvent{at: time.Now(), key: s.Model, seq: s.Seq})
		l.mu.Unlock()
	}
}

func (l *swapLog) list() []swapEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]swapEvent(nil), l.swaps...)
}

// handlerTrace records, for each request that carries a request ID, when
// the server's handler started and returned.
type handlerTrace struct {
	mu    sync.Mutex
	spans map[int64][2]time.Time
}

func newHandlerTrace() *handlerTrace { return &handlerTrace{spans: map[int64][2]time.Time{}} }

func (t *handlerTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqIDHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		n, _ := strconv.ParseInt(id, 10, 64)
		t.mu.Lock()
		t.spans[n] = [2]time.Time{t0, t1}
		t.mu.Unlock()
	})
}

// reqRec is one scheduled request. Times are offsets from the phase start;
// a request never sent has sent < 0.
type reqRec struct {
	id               int64
	sched, sent, got time.Duration
	status           int
	model, idx       int
	sender           int
	body             []byte
}

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	rate  float64
	dur   time.Duration
	start time.Time
	recs  []reqRec
}

// loadGen sends open-loop Poisson traffic from senders goroutines. Request
// IDs are unique across the generator's phases.
type loadGen struct {
	url     string
	models  []*serveModel
	clients [senders]*http.Client
	nextID  int64
}

func newLoadGen(url string, ms []*serveModel) *loadGen {
	g := &loadGen{url: url, models: ms}
	for i := range g.clients {
		g.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// schedule draws each sender's arrival schedule for rate over dur: a seeded
// even mix of the model keys, inputs drawn from each key's pool.
func (g *loadGen) schedule(rate float64, dur time.Duration, seed uint64) [senders][]reqRec {
	var out [senders][]reqRec
	for s := range out {
		rng := tensor.NewRNG(seed*senders + uint64(s) + 1)
		t := 0.0
		for {
			t += -math.Log(1-rng.Float64()) / (rate / senders)
			at := time.Duration(t * float64(time.Second))
			if at >= dur {
				break
			}
			m := rng.Intn(len(g.models))
			out[s] = append(out[s], reqRec{sched: at, sent: -1, model: m, idx: rng.Intn(len(g.models[m].bodies)), sender: s})
		}
	}
	return out
}

// run offers rate req/s for dur. Each request is timed from when it was due,
// so a stall counts against every request it delays. A sender that falls
// more than a second behind stops; its remaining requests stay unsent and
// count as missing every latency limit.
func (g *loadGen) run(rate float64, dur time.Duration, seed uint64, traced bool) *phase {
	sched := g.schedule(rate, dur, seed)
	for s := range sched {
		for i := range sched[s] {
			g.nextID++
			sched[s][i].id = g.nextID
		}
	}
	p := &phase{rate: rate, dur: dur, start: time.Now().Add(5 * time.Millisecond)}
	var wg sync.WaitGroup
	for s := range sched {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g.send(p, sched[s], g.clients[s], traced)
		}(s)
	}
	wg.Wait()
	for s := range sched {
		p.recs = append(p.recs, sched[s]...)
	}
	return p
}

func (g *loadGen) send(p *phase, recs []reqRec, c *http.Client, traced bool) {
	var buf bytes.Buffer
	for i := range recs {
		r := &recs[i]
		if d := time.Until(p.start.Add(r.sched)); d > 0 {
			time.Sleep(d)
		}
		if time.Since(p.start) > p.dur+time.Second {
			return
		}
		req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(g.models[r.model].bodies[r.idx]))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if traced {
			req.Header.Set(reqIDHeader, strconv.FormatInt(r.id, 10))
		}
		r.sent = time.Since(p.start)
		if resp, err := c.Do(req); err == nil {
			buf.Reset()
			_, err := buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if err == nil {
				r.status = resp.StatusCode
				r.body = bytes.Clone(buf.Bytes())
			}
		}
		r.got = time.Since(p.start)
	}
}

// latency is the distribution over every scheduled request, in ms from its
// due time; requests that failed or were never sent read +Inf.
func (p *phase) latency() *dist {
	var d dist
	for _, r := range p.recs {
		if r.sent < 0 || r.status != http.StatusOK {
			d.add(math.Inf(1))
			continue
		}
		d.addDur(r.got - r.sched)
	}
	return &d
}

// counts returns requests sent and, of those, the ones that did not get a
// 200 (shed, timed out or errored).
func (p *phase) counts() (sent, failed, unsent int) {
	for _, r := range p.recs {
		switch {
		case r.sent < 0:
			unsent++
		case r.status != http.StatusOK:
			sent++
			failed++
		default:
			sent++
		}
	}
	return
}

func (p *phase) describe(name string) string {
	sent, failed, unsent := p.counts()
	lat := p.latency()
	slow := 0
	for _, v := range lat.xs {
		if v > sloMs {
			slow++
		}
	}
	return fmt.Sprintf("%-11s offered %5.0f req/s for %4.1fs: latency %s, %.2f%% over %.0f ms; sent=%d failed=%d unsent=%d",
		name, p.rate, p.dur.Seconds(), lat.describe("ms"), 100*float64(slow)/float64(max(lat.n(), 1)), sloMs, sent, failed, unsent)
}

// predictResp is the /predict response body.
type predictResp struct {
	Model   string    `json:"model"`
	Label   int       `json:"label"`
	Probs   []float64 `json:"probs"`
	Version struct {
		Seq int `json:"seq"`
	} `json:"version"`
}

// checker verifies /predict responses against a direct nn forward pass of
// the checkpoint version that answered, built from the store.
type checker struct {
	st     *store.Store
	nets   map[string]*nn.Network // key@seq
	models []*serveModel
	seqs   [senders]map[string]int // last version each connection saw per key
}

func newChecker(st *store.Store, ms []*serveModel) *checker {
	c := &checker{st: st, nets: map[string]*nn.Network{}, models: ms}
	for i := range c.seqs {
		c.seqs[i] = map[string]int{}
	}
	return c
}

// check verifies every 200 response of the phase: probabilities must sum to
// 1, the label must be their argmax, and each value must equal the
// reference forward pass on the same features.
func (c *checker) check(p *phase, res *result) {
	for _, r := range p.recs {
		if r.sent < 0 || r.status != http.StatusOK {
			continue
		}
		m := c.models[r.model]
		var out predictResp
		if err := json.Unmarshal(r.body, &out); err != nil {
			res.fail("request %d: undecodable response %q: %v", r.id, r.body, err)
			continue
		}
		want, err := c.expect(m, out.Version.Seq, r.idx)
		if err != nil {
			res.fail("request %d: %v", r.id, err)
			continue
		}
		if msg := checkProbs(out, m.key, want); msg != "" {
			res.fail("request %d (%s v%d): %s", r.id, m.key, out.Version.Seq, msg)
		}
		// One connection's requests are sequential, so the version it
		// sees may only move forward.
		if prev := c.seqs[r.sender][m.key]; out.Version.Seq < prev {
			res.fail("request %d: %s served v%d after v%d on the same connection", r.id, m.key, out.Version.Seq, prev)
		}
		c.seqs[r.sender][m.key] = out.Version.Seq
	}
}

func checkProbs(out predictResp, key string, want []float64) string {
	if out.Model != key {
		return fmt.Sprintf("answered for model %q", out.Model)
	}
	if len(out.Probs) != len(want) {
		return fmt.Sprintf("%d probabilities, want %d", len(out.Probs), len(want))
	}
	var sum float64
	for i, v := range out.Probs {
		sum += v
		if v != want[i] {
			return fmt.Sprintf("probability %d is %v, direct forward pass gives %v", i, v, want[i])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Sprintf("probabilities sum to %v", sum)
	}
	if out.Label != tensor.ArgMax(out.Probs) {
		return fmt.Sprintf("label %d is not the argmax of %v", out.Label, out.Probs)
	}
	return ""
}

// net builds, once, the network of key@seq from the store.
func (c *checker) net(key string, seq int) (*nn.Network, error) {
	id := fmt.Sprintf("%s@%d", key, seq)
	if net, ok := c.nets[id]; ok {
		return net, nil
	}
	blob, _, err := c.st.GetVersion(key, seq)
	if err != nil {
		return nil, fmt.Errorf("served version %s not in the store: %w", id, err)
	}
	ckpt, err := serve.UnmarshalCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	net, err := ckpt.Build()
	if err != nil {
		return nil, err
	}
	c.nets[id] = net
	return net, nil
}

// expect runs the reference forward pass of key@seq on one input and
// applies a stable softmax.
func (c *checker) expect(m *serveModel, seq, idx int) ([]float64, error) {
	net, err := c.net(m.key, seq)
	if err != nil {
		return nil, err
	}
	x := tensor.New(m.spec.InputShape(1)...)
	copy(x.Data, m.feats[idx])
	logits := net.Forward(x, false).Data
	out := make([]float64, len(logits))
	hi := logits[tensor.ArgMax(logits)]
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - hi)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// steadySpecs are serve-steady's model keys, requested in an even mix: a
// 32-feature and a 784-feature MLP.
var steadySpecs = []struct {
	key  string
	spec models.Spec
}{
	{"mlp32", models.Spec{Family: "mlp", In: 32, Hidden: 64, Classes: 10}},
	{"mlp784", models.Spec{Family: "mlp", In: 784, Hidden: 64, Classes: 10}},
}

// serveSteady is the set-up of serve-steady: the checkpoints written to a
// store file and a server over it.
type serveSteady struct {
	env *serveEnv
	st  *store.Store
}

func setupServeSteady(o options, ht *handlerTrace) (*serveSteady, error) {
	rng := tensor.NewRNG(o.seed)
	st := store.New()
	for _, c := range steadySpecs {
		ckpt, err := seededCheckpoint(c.spec, rng)
		if err != nil {
			return nil, err
		}
		if _, err := serve.PutCheckpoint(st, c.key, ckpt); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(o.workDir, "serve.store")
	if err := writeStore(path, st); err != nil {
		return nil, err
	}
	env, err := startServer(path, ht)
	if err != nil {
		return nil, err
	}
	return &serveSteady{env: env, st: st}, nil
}

func runServeSteady(o options) (*result, error) {
	res := newResult()
	rng := tensor.NewRNG(o.seed + 1<<32)
	var ms []*serveModel
	for _, c := range steadySpecs {
		m, err := newInputs(c.key, c.spec, rng, 64)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	var ht *handlerTrace
	if o.traced {
		ht = newHandlerTrace()
	}
	s, setupSecs, err := timeSetups(setupRuns, func() (*serveSteady, error) { return setupServeSteady(o, ht) },
		func(s *serveSteady) { s.env.close() })
	if err != nil {
		return nil, err
	}
	defer s.env.close()
	res.e2e["setup_s"] = setupSecs
	g := newLoadGen(s.env.url, ms)
	defer g.close()
	chk := newChecker(s.st, ms)
	S := o.dur
	seed := o.seed * 1000

	g.run(lowRate, 300*time.Millisecond, seed, false) // warm connections and pools

	var phases []*phase
	record := func(name string, p *phase) *phase {
		fmt.Println(p.describe(name))
		chk.check(p, res)
		sent, failed, _ := p.counts()
		res.attempted += sent
		res.failed += failed
		phases = append(phases, p)
		return p
	}
	if o.traced {
		if err := traceServe(o, res, s.env, g, chk, record, seed); err != nil {
			return nil, err
		}
		return res, nil
	}

	low := record("low", g.run(lowRate, S*3/10, seed+1, false))
	high := record("high", g.run(highRate, S/5, seed+2, false))
	lowLat, highLat := low.latency(), high.latency()
	res.e2e["latency_p50_ms"] = lowLat.median()
	fmt.Printf("predict_ms.low: %s\n", lowLat.describe("ms"))
	fmt.Printf("predict_ms.high: %s\n", highLat.describe("ms"))
	// Probe around the gated knee estimated so far, where the share of slow
	// requests changes fastest with the rate.
	for i, f := range []float64{1.2, 1.1, 1.0} {
		knee, err := sloKnee(phases, gatedShare)
		rate := f * knee
		switch {
		case errors.Is(err, errAllFast):
			rate = 1.5 * maxRate(phases)
		case knee <= 0:
			rate = minRate(phases) / 2
		}
		record(fmt.Sprintf("probe%d", i+1), g.run(rate, S/6, seed+3+uint64(i), false))
	}
	for _, c := range []struct {
		name  string
		share float64
	}{{"p99", 0.01}, {"p95", gatedShare}} {
		knee, err := sloKnee(phases, c.share)
		switch {
		case errors.Is(err, errAllFast):
			fmt.Printf("predict_max_qps_at_slo(%s ≤ %.0f ms) > %.6g req/s, the highest rate probed\n", c.name, sloMs, knee)
		case knee <= 0:
			fmt.Printf("predict_max_qps_at_slo(%s ≤ %.0f ms): no probed rate meets it\n", c.name, sloMs)
		default:
			fmt.Printf("predict_max_qps_at_slo(%s ≤ %.0f ms) = %.6g req/s\n", c.name, sloMs, knee)
		}
		if c.share == gatedShare {
			res.e2e["throughput_per_s"] = knee
		}
	}
	if res.e2e["throughput_per_s"] <= 0 {
		res.fail("no offered rate meets p95 ≤ %.0f ms", sloMs)
	}
	fmt.Printf("predict_fail_ratio = %.6g (%d of %d sent)\n", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	return res, nil
}

// errAllFast reports that no probed rate broke the SLO.
var errAllFast = errors.New("no probed rate broke the SLO")

func maxRate(ps []*phase) float64 {
	r := ps[0].rate
	for _, p := range ps {
		r = math.Max(r, p.rate)
	}
	return r
}

func minRate(ps []*phase) float64 {
	r := ps[0].rate
	for _, p := range ps {
		r = math.Min(r, p.rate)
	}
	return r
}

// sloKnee estimates the highest offered rate that holds a latency SLO: the
// rate at which a share limit of requests (0.01 for p99 ≤ sloMs) takes
// longer than sloMs, failed and unsent requests counted as slow. A single
// p99 from a few seconds of traffic rests on about ten requests, so a
// bisection on it lands far apart from run to run. Instead each phase's
// share of slow requests is made non-decreasing in the rate by pooling
// adjacent violators, weighted by request count, and the knee is
// interpolated linearly between the two probed rates around the crossing.
// With no crossing it returns the highest rate probed and errAllFast, or 0
// when even the lowest rate broke the SLO.
func sloKnee(ps []*phase, limit float64) (float64, error) {
	type point struct{ rate, slow, n float64 }
	pts := make([]point, 0, len(ps))
	for _, p := range ps {
		var pt point
		pt.rate = p.rate
		for _, v := range p.latency().xs {
			pt.n++
			if v > sloMs {
				pt.slow++
			}
		}
		pts = append(pts, pt)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].rate < pts[j].rate })
	// Pool adjacent violators: blocks of consecutive points share one
	// share, and no block's share exceeds the next one's.
	type block struct {
		slow, n float64
		last    int
	}
	var blocks []block
	for i, pt := range pts {
		blocks = append(blocks, block{pt.slow, pt.n, i})
		for len(blocks) > 1 {
			x, y := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if x.slow/x.n <= y.slow/y.n {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{x.slow + y.slow, x.n + y.n, y.last})
		}
	}
	share := make([]float64, len(pts))
	first := 0
	for _, b := range blocks {
		for i := first; i <= b.last; i++ {
			share[i] = b.slow / b.n
		}
		first = b.last + 1
	}
	for i, s := range share {
		if s <= limit {
			continue
		}
		if i == 0 {
			return 0, nil
		}
		lo, hi := pts[i-1].rate, pts[i].rate
		return lo + (hi-lo)*(limit-share[i-1])/(s-share[i-1]), nil
	}
	return pts[len(pts)-1].rate, errAllFast
}

// traceServe is serve-steady's traced run: the low rate untraced and then
// traced on the same seeded schedule (the difference is the tracing
// overhead), the high rate traced, and the predictor driven directly on the
// low schedule.
func traceServe(o options, res *result, env *serveEnv, g *loadGen, chk *checker, record func(string, *phase) *phase, seed uint64) error {
	S := o.dur
	plain := record("low", g.run(lowRate, S/4, seed+1, false))
	low := record("low-traced", g.run(lowRate, S*3/10, seed+1, true))
	high := record("high-traced", g.run(highRate, S/5, seed+2, true))
	res.e2e["latency_p50_ms"] = plain.latency().median()
	if err := serveLayers(o, res, env, []*phase{low, high}); err != nil {
		return err
	}
	res.layers["trace.overhead_pct"] = overheadPct(low, plain)
	return predictorLayers(res, env, g, chk, S*3/10, seed+1)
}

func overheadPct(traced, plain *phase) float64 {
	t, p := traced.latency().median(), plain.latency().median()
	fmt.Printf("tracing overhead: traced low p50 %.4g ms vs untraced %.4g ms\n", t, p)
	return (t - p) / p * 100
}

// serveLayers joins each traced request's client span to its handler span
// by request ID and splits the client-observed time into generator
// lateness, handler time and the remainder (transport, HTTP client and
// server stacks). It checks that the three add up to the client's time.
func serveLayers(o options, res *result, env *serveEnv, phases []*phase) error {
	tr := newTracer()
	var handler, transport, late dist
	var measured time.Duration
	for _, p := range phases {
		for _, r := range p.recs {
			if r.sent < 0 || r.status != http.StatusOK {
				continue
			}
			env.hTrace.mu.Lock()
			h, ok := env.hTrace.spans[r.id]
			env.hTrace.mu.Unlock()
			if !ok {
				res.fail("traced request %d has no handler span", r.id)
				continue
			}
			root := tr.add("client.request", p.start.Add(r.sched), p.start.Add(r.got), -1, r.id)
			tr.add("client.late", p.start.Add(r.sched), p.start.Add(r.sent), root, r.id)
			tr.add("serve.handler", h[0], h[1], root, r.id)
			measured += r.got - r.sched
			handler.addDur(h[1].Sub(h[0]))
			transport.addDur(r.got - r.sent - h[1].Sub(h[0]))
			late.addDur(r.sent - r.sched)
		}
	}
	led, err := tr.ledger()
	if err != nil {
		res.fail("trace does not nest: %v", err)
		return nil
	}
	if err := led.reconcile(measured); err != nil {
		res.fail("reconciliation: %v", err)
	}
	L := res.layers
	L["serve.handler_ms.p50"] = handler.median()
	L["serve.handler_ms.p99"] = supported(&handler, 0.99)
	L["serve.transport_ms.p50"] = transport.median()
	L["client.late_ms.p99"] = supported(&late, 0.99)
	n := float64(handler.n())
	per := func(name string) float64 { return ms(led.self[name]) / n }
	fmt.Printf("-- per-layer self time over %d traced requests (client wall %.4g ms/request)\n", handler.n(), ms(led.wall)/n)
	fmt.Printf("  serve.handler                    %8.4g ms/request  %s\n", per("serve.handler"), handler.describe("ms"))
	fmt.Printf("  client.late                      %8.4g ms/request  %s\n", per("client.late"), late.describe("ms"))
	fmt.Printf("  client.request (remainder)       %8.4g ms/request  transport %s\n", per("client.request"), transport.describe("ms"))
	fmt.Printf("  handler + late + remainder = %.6g ms/request\n", per("serve.handler")+per("client.late")+per("client.request"))
	if err := tr.write(o.trace); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", o.trace)
	return nil
}

// supported returns the q-quantile, or 0 when too few samples lie beyond it
// to report it.
func supported(d *dist, q float64) float64 {
	v, ok := d.quantile(q)
	if !ok {
		return 0
	}
	return v
}

// predictorLayers measures the layers under the handler: Predictor.PredictInto
// driven directly on a low-rate schedule (its latency and the batch sizes it
// forms), one batch-1 forward pass, and the handler core's allocations.
func predictorLayers(res *result, env *serveEnv, g *loadGen, chk *checker, dur time.Duration, seed uint64) error {
	ms := chk.models
	preds := make([]*serve.Predictor, len(ms))
	for i, m := range ms {
		cur, ok := env.reg.Current(m.key)
		if !ok {
			return fmt.Errorf("model %s is not served", m.key)
		}
		p, err := serve.NewPredictor(cur, serve.Config{})
		if err != nil {
			return err
		}
		defer p.Close()
		preds[i] = p
	}
	sched := g.schedule(lowRate, dur, seed)
	start := time.Now().Add(5 * time.Millisecond)
	var mu sync.Mutex
	var lat dist
	var wg sync.WaitGroup
	for s := range sched {
		wg.Add(1)
		go func(recs []reqRec) {
			defer wg.Done()
			for _, r := range recs {
				if d := time.Until(start.Add(r.sched)); d > 0 {
					time.Sleep(d)
				}
				p := preds[r.model]
				probs := make([]float64, p.Classes())
				t0 := time.Now()
				out, err := p.PredictInto(context.Background(), ms[r.model].feats[r.idx], probs, nil)
				d := time.Since(t0)
				mu.Lock()
				lat.addDur(d)
				if err != nil {
					res.fail("PredictInto: %v", err)
				} else {
					var resp predictResp
					resp.Model, resp.Label, resp.Probs = ms[r.model].key, out.Label, out.Probs
					want, err := chk.expect(ms[r.model], out.Version.Seq, r.idx)
					if err != nil {
						res.fail("%v", err)
					} else if msg := checkProbs(resp, ms[r.model].key, want); msg != "" {
						res.fail("PredictInto on %s: %s", ms[r.model].key, msg)
					}
				}
				mu.Unlock()
			}
		}(sched[s])
	}
	wg.Wait()
	var reqs, fwds int64
	for _, p := range preds {
		st := p.Stats()
		reqs += st.Requests
		fwds += st.Forwards
	}
	L := res.layers
	L["serve.predictor_ms.p50"] = lat.median()
	L["serve.predictor_ms.p99"] = supported(&lat, 0.99)
	L["serve.batch_size.mean"] = float64(reqs) / float64(max(fwds, 1))
	var fwdUs, allocs float64
	for i, m := range ms {
		net, err := chk.net(m.key, preds[i].Version().Seq)
		if err != nil {
			return err
		}
		x := tensor.New(m.spec.InputShape(1)...)
		copy(x.Data, m.feats[0])
		var d dist
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			net.Forward(x, false)
			if i >= 10 {
				d.addDur(time.Since(t0))
			}
		}
		fwdUs += d.median() * 1000 / float64(len(ms))
		a, _, err := env.srv.MeasurePredictAllocs(m.bodies[0], 300)
		if err != nil {
			return err
		}
		allocs += a / float64(len(ms))
	}
	L["nn.forward_us.b1"] = fwdUs
	L["serve.allocs_per_request"] = allocs
	fmt.Printf("  serve.predictor (PredictInto on the low schedule): %s, batch size mean %.3g (%d requests, %d forwards)\n",
		lat.describe("ms"), L["serve.batch_size.mean"], reqs, fwds)
	fmt.Printf("  nn.forward_us.b1 = %.4g us (mean over the served models), serve.allocs_per_request = %.3g\n", fwdUs, allocs)
	return nil
}
