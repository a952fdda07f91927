package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"gmreg/internal/models"
	"gmreg/internal/obs"
	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
)

// The serveload experiment measures a real in-process gmreg-serve under
// OPEN-loop load: Poisson arrivals at a fixed offered rate over loopback
// TCP, so the generator keeps sending whether or not the server keeps up.
// Unlike the closed-loop serve experiment (whose clients wait for each
// response before sending the next, hiding queueing delay), open-loop
// latency is measured from each request's *scheduled* arrival time — the
// wrk2-style correction for coordinated omission. The sweep walks offered
// QPS up through the server's calibrated capacity and reports p50/p99/p999
// plus the highest offered rate that still met the latency SLO. Results
// land in BENCH_serveload.json.

// ServeLoadCase is one offered-rate measurement.
type ServeLoadCase struct {
	OfferedQPS  float64 `json:"offered_qps"`
	DurationSec float64 `json:"duration_sec"`
	Requests    int64   `json:"requests"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"` // 503s from bounded admission
	Errors      int64   `json:"errors"`
	AchievedQPS float64 `json:"achieved_qps"` // completed OK responses per second
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MaxMs       float64 `json:"max_ms"`
	// MeetsSLO: p99 within the SLO and no sheds or errors.
	MeetsSLO bool `json:"meets_slo"`
}

// ServeLoadReport is the full sweep written to BENCH_serveload.json.
type ServeLoadReport struct {
	Header
	SLOMs    float64 `json:"slo_ms"`
	Replicas int     `json:"replicas"`
	Workers  int     `json:"workers"`
	// AllocsPerRequest / BytesPerRequest are the steady-state /predict heap
	// cost from the in-process probe (read → decode → predict → encode),
	// gated in CI.
	AllocsPerRequest float64 `json:"allocs_per_request"`
	BytesPerRequest  float64 `json:"bytes_per_request"`
	// CalibratedQPS is the closed-loop throughput estimate the sweep's
	// offered rates are fractions of.
	CalibratedQPS float64 `json:"calibrated_qps"`
	// MaxQPSAtSLO is the highest offered rate whose case met the SLO
	// (0 when none did).
	MaxQPSAtSLO float64         `json:"max_qps_at_slo"`
	Cases       []ServeLoadCase `json:"cases"`
}

// ServeLoadJSONPath is where the serveload experiment writes its report.
const ServeLoadJSONPath = "BENCH_serveload.json"

// DefaultServeSLO is the p99 latency objective when -slo is not given.
const DefaultServeSLO = 10 * time.Millisecond

// RunServeLoad sweeps open-loop offered QPS against an in-process server
// and prints the latency table. slo ≤ 0 selects DefaultServeSLO.
func RunServeLoad(w io.Writer, s Scale, slo time.Duration) (*ServeLoadReport, error) {
	if slo <= 0 {
		slo = DefaultServeSLO
	}
	workers, caseDur := 32, 1500*time.Millisecond
	if s.Label == "full" {
		workers, caseDur = 128, 8*time.Second
	}
	replicas := max(1, runtime.GOMAXPROCS(0)/2)

	spec := models.Spec{Family: "mlp", In: 32, Hidden: 64, Classes: 10}
	nnet, err := spec.Build()
	if err != nil {
		return nil, err
	}
	ckpt, err := serve.NewCheckpoint(spec, nnet, nil, nil)
	if err != nil {
		return nil, err
	}
	st := store.New()
	if _, err := serve.PutCheckpoint(st, "bench", ckpt); err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(st)
	srv := serve.NewServer(reg, serve.ServerConfig{
		Predictor: serve.Config{
			Replicas: replicas,
			MaxBatch: 32,
			MaxWait:  500 * time.Microsecond,
			QueueCap: 4 * workers,
		},
		MaxInflight: 4 * workers,
		// Generous per-request budget: the SLO gate, not the timeout,
		// decides sustainability.
		RequestTimeout: 2 * time.Second,
		Metrics:        obs.NewRegistry(),
	})
	defer srv.Close()
	reg.Refresh()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	rng := tensor.NewRNG(s.Seed)
	features := make([]float64, spec.In)
	rng.FillNormal(features, 0, 1)
	body, err := json.Marshal(struct {
		Model    string    `json:"model"`
		Features []float64 `json:"features"`
	}{Model: "bench", Features: features})
	if err != nil {
		return nil, err
	}
	url := "http://" + ln.Addr().String() + "/predict"
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers + 8,
		MaxIdleConnsPerHost: workers + 8,
	}}

	// The in-process allocation probe (same numbers the CI gate pins).
	allocs, bytesPerReq, err := srv.MeasurePredictAllocs(body, 300)
	if err != nil {
		return nil, err
	}

	// Calibrate capacity closed-loop, then sweep offered rates around it.
	calibrated, err := closedLoopQPS(url, client, body, workers, 500*time.Millisecond)
	if err != nil {
		return nil, err
	}

	rep := &ServeLoadReport{
		Header:           captureHeader(),
		SLOMs:            float64(slo) / float64(time.Millisecond),
		Replicas:         replicas,
		Workers:          workers,
		AllocsPerRequest: allocs,
		BytesPerRequest:  bytesPerReq,
		CalibratedQPS:    calibrated,
	}
	for _, frac := range []float64{0.3, 0.5, 0.7, 0.85, 1.0, 1.15} {
		rate := math.Max(1, frac*calibrated)
		c, err := runOpenLoopCase(url, client, body, rate, caseDur, workers, s.Seed+uint64(frac*1000))
		if err != nil {
			return nil, err
		}
		c.MeetsSLO = c.Shed == 0 && c.Errors == 0 && c.P99Ms <= rep.SLOMs
		if c.MeetsSLO && c.OfferedQPS > rep.MaxQPSAtSLO {
			rep.MaxQPSAtSLO = c.OfferedQPS
		}
		rep.Cases = append(rep.Cases, c)
	}

	sectionHeader(w, "Open-loop /predict latency under Poisson load")
	rep.Env.warnScaling(w)
	fmt.Fprintf(w, "workers=%d replicas=%d calibrated=%.0f req/s slo(p99)=%.1fms allocs/req=%.2f (%.0f B)\n",
		workers, replicas, calibrated, rep.SLOMs, allocs, bytesPerReq)
	t := newTable("offered/s", "achieved/s", "ok", "shed", "err", "p50 ms", "p99 ms", "p99.9 ms", "SLO")
	for _, c := range rep.Cases {
		mark := "miss"
		if c.MeetsSLO {
			mark = "ok"
		}
		t.addRowf("%.0f|%.0f|%d|%d|%d|%.3f|%.3f|%.3f|%s",
			c.OfferedQPS, c.AchievedQPS, c.OK, c.Shed, c.Errors, c.P50Ms, c.P99Ms, c.P999Ms, mark)
	}
	t.write(w)
	fmt.Fprintf(w, "max sustainable: %.0f req/s at p99 ≤ %.1fms\n", rep.MaxQPSAtSLO, rep.SLOMs)
	return rep, nil
}

// closedLoopQPS estimates server capacity: workers hammer back-to-back for
// dur and the completed-request rate is the estimate the open-loop sweep
// brackets.
func closedLoopQPS(url string, client *http.Client, body []byte, workers int, dur time.Duration) (float64, error) {
	var done int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for time.Now().Before(deadline) {
				st, err := postPredict(client, url, body)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if st == http.StatusOK {
					n++
				}
			}
			mu.Lock()
			done += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	elapsed := time.Since(start)
	if done == 0 {
		return 0, fmt.Errorf("bench: calibration completed no requests in %v", dur)
	}
	return float64(done) / elapsed.Seconds(), nil
}

// runOpenLoopCase drives one offered rate. The rate is split across workers
// as independent Poisson substreams (their superposition is Poisson at the
// full rate); each worker measures every request from its scheduled arrival
// time, so time a request spends waiting for a late worker counts against
// the server — the open-loop accounting that closed-loop sweeps miss.
func runOpenLoopCase(url string, client *http.Client, body []byte, rate float64, dur time.Duration, workers int, seed uint64) (ServeLoadCase, error) {
	perWorker := rate / float64(workers)
	lats := make([][]time.Duration, workers)
	sheds := make([]int64, workers)
	errs := make([]int64, workers)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond) // common schedule origin
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := tensor.NewRNG(seed*1000003 + uint64(g))
			lats[g] = make([]time.Duration, 0, int(perWorker*dur.Seconds())+8)
			next := start
			for {
				// Exponential inter-arrival gap at this substream's rate.
				u := rng.Float64()
				if u <= 0 {
					u = 0x1p-53
				}
				next = next.Add(time.Duration(-math.Log(u) / perWorker * float64(time.Second)))
				if next.Sub(start) > dur {
					return
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				st, err := postPredict(client, url, body)
				switch {
				case err != nil:
					errs[g]++
				case st == http.StatusOK:
					lats[g] = append(lats[g], time.Since(next))
				case st == http.StatusServiceUnavailable:
					sheds[g]++
				default:
					errs[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	c := ServeLoadCase{OfferedQPS: rate, DurationSec: dur.Seconds()}
	for g := range lats {
		all = append(all, lats[g]...)
		c.Shed += sheds[g]
		c.Errors += errs[g]
	}
	c.OK = int64(len(all))
	c.Requests = c.OK + c.Shed + c.Errors
	if c.Requests == 0 {
		return c, fmt.Errorf("bench: open-loop case at %.0f req/s issued no requests", rate)
	}
	c.AchievedQPS = float64(c.OK) / elapsed.Seconds()
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	c.P50Ms = percentileMs(all, 0.50)
	c.P99Ms = percentileMs(all, 0.99)
	c.P999Ms = percentileMs(all, 0.999)
	if len(all) > 0 {
		c.MaxMs = float64(all[len(all)-1]) / float64(time.Millisecond)
	}
	return c, nil
}

// postPredict issues one /predict and drains the response so the connection
// is reusable.
func postPredict(client *http.Client, url string, body []byte) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}
