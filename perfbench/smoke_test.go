package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// checks that it passes its own correctness checks and reports exactly the
// metrics BENCHMARK.json lists.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, d := range man.PerLayer {
		listed[d.Name] = true
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, dur: 2 * time.Second, traced: traced, workDir: t.TempDir(), trace: t.TempDir() + "/spans.jsonl"}
			res, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(res.errs) > 0 {
				t.Errorf("%s traced=%v: checks failed: %s", name, traced, strings.Join(res.errs, "; "))
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d", name, traced, res.attempted, res.failed)
			}
			if !traced {
				for _, d := range man.EndToEnd {
					v, ok := res.e2e[d.Name]
					if d.Name == "peak_rss_mb" { // read by main after the workload
						continue
					}
					if !ok || !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end %s = %v (measured %v)", name, d.Name, v, ok)
					}
				}
				continue
			}
			if len(res.layers) == 0 {
				t.Errorf("%s: traced run reported no per-layer metrics", name)
			}
			for m := range res.layers {
				if !listed[m] {
					t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", name, m)
				}
			}
		}
	}
}

// TestLedgerReconciles checks that self times partition the wall time and
// that spans which do not nest are rejected.
func TestLedgerReconciles(t *testing.T) {
	at := func(tr *tracer, ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }

	tr := newTracer()
	root := tr.add("step", at(tr, 0), at(tr, 100), -1, 0)
	grad := tr.add("grad", at(tr, 10), at(tr, 50), root, 0)
	tr.add("estep", at(tr, 20), at(tr, 30), grad, 0)
	tr.add("fwd", at(tr, 60), at(tr, 90), root, 0)
	led, err := tr.ledger()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"step": 30 * time.Millisecond, "grad": 30 * time.Millisecond,
		"estep": 10 * time.Millisecond, "fwd": 30 * time.Millisecond}
	var sum time.Duration
	for name, d := range want {
		if led.self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, led.self[name], d)
		}
		sum += led.self[name]
	}
	if sum != led.wall || led.wall != 100*time.Millisecond {
		t.Errorf("self times add to %v, wall %v", sum, led.wall)
	}
	if err := led.reconcile(100 * time.Millisecond); err != nil {
		t.Error(err)
	}
	if err := led.reconcile(150 * time.Millisecond); err == nil {
		t.Error("a wall time 50% off reconciled")
	}

	overlap := newTracer()
	r := overlap.add("step", at(overlap, 0), at(overlap, 100), -1, 0)
	overlap.add("a", at(overlap, 10), at(overlap, 50), r, 0)
	overlap.add("b", at(overlap, 40), at(overlap, 60), r, 0)
	if _, err := overlap.ledger(); err == nil {
		t.Error("overlapping siblings were accepted")
	}

	outside := newTracer()
	r = outside.add("req", at(outside, 0), at(outside, 10), -1, 1)
	outside.add("handler", at(outside, 5), at(outside, 12), r, 1)
	if _, err := outside.ledger(); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
}

// TestSLOKnee checks the knee fit on phases whose share of slow requests
// follows a known logistic curve.
func TestSLOKnee(t *testing.T) {
	var ps []*phase
	for _, rate := range []float64{200, 400, 500, 600} {
		share := 1 / (1 + math.Exp(-(-9.2 + 0.0115*rate))) // 1% at 400 req/s
		p := &phase{rate: rate}
		const n = 100000
		slow := int(math.Round(share * n))
		for i := 0; i < n; i++ {
			r := reqRec{sent: 0, status: 200, got: time.Millisecond}
			if i < slow {
				r.got = 20 * time.Millisecond
			}
			p.recs = append(p.recs, r)
		}
		ps = append(ps, p)
	}
	knee, err := sloKnee(ps, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(knee-400) > 2 {
		t.Errorf("knee = %v req/s, want about 400", knee)
	}
	fast := &phase{rate: 200, recs: []reqRec{{status: 200, got: time.Millisecond}}}
	if _, err := sloKnee([]*phase{fast}, 0.01); !errors.Is(err, errAllFast) {
		t.Errorf("all-fast phases: err = %v, want errAllFast", err)
	}
}
