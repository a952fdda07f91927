// Command perfbench is the repository benchmark. It runs one named workload
// against the gmreg modules for a fixed time, checks that every output is
// correct, and prints its metrics; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics. Run it
// from the repository root through the wrapper, which builds it first:
//
//	bash perfbench/run.sh --workload serve-steady --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json names;
// with --trace 1 the workload runs traced and the metrics are the per-layer
// ones. README.md in this directory describes the workloads and which layer
// metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gmreg/internal/bench"
	"gmreg/internal/tensor"
)

// options is what every workload receives.
type options struct {
	seed    uint64
	dur     time.Duration
	traced  bool
	workDir string // working directory for store files, removed at exit
	trace   string // where the traced run writes its spans
}

// result is what a workload reports. e2e and layers are keyed by the metric
// names of BENCHMARK.json; a per-layer metric the workload never exercises
// (a training layer in a serving workload) reads 0.
type result struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	errs      []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed correctness check; the run then exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*result, error){
	"train-cnn":    runTrainCNN,
	"train-mlp-gm": runTrainMLP,
	"serve-steady": runServeSteady,
	"online-serve": runOnlineServe,
}

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: train-cnn, train-mlp-gm, serve-steady or online-serve")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the workload traced and reports per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Tile shapes and cutoffs change kernel speed, so both sides of a
	// comparison must run the built-in defaults, not a host tuning file.
	if os.Getenv("GMREG_AUTOTUNE") != "off" || tensor.TuneSource() != "default" {
		fmt.Fprintln(os.Stderr, "perfbench: kernel autotune must be pinned off (GMREG_AUTOTUNE=off); run through perfbench/run.sh")
		return 1
	}
	env := bench.CaptureEnv()
	fmt.Printf("env: go=%s nproc=%d gomaxprocs=%d tune_source=%s tile=%dx%d serial_cutoff=%d partition_grain=%d\n",
		env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.TuneSource, env.TileM, env.TileN, env.SerialCutoff, env.PartitionGrain)
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)

	root, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work := filepath.Join(root, "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, err := fn(options{
		seed:    *seed,
		dur:     time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workDir: work,
		trace:   filepath.Join(root, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rss, err := peakRSSMB(); err == nil {
		res.e2e["peak_rss_mb"] = rss
	} else {
		res.fail("reading peak RSS: %v", err)
	}

	defs, values := man.EndToEnd, res.e2e
	if *trace == 1 {
		defs, values = man.PerLayer, res.layers
		printValues("end-to-end (traced run)", res.e2e, nil)
	}
	out := map[string]any{}
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
	}
	for name := range values {
		if !listed[name] {
			res.fail("metric %s was measured but BENCHMARK.json does not list it", name)
		}
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && *trace == 0 {
			res.fail("end-to-end metric %s was not measured", d.Name)
			continue
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	printValues("reported", values, defs)
	for _, e := range res.errs {
		fmt.Println("CHECK FAILED:", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.errs) == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.errs) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no metrics", path)
	}
	return &m, nil
}

// printValues prints metrics one per line, in defs order when given.
func printValues(title string, values map[string]float64, defs []metricDef) {
	fmt.Printf("-- %s\n", title)
	if defs == nil {
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			defs = append(defs, metricDef{Name: n})
		}
	}
	for _, d := range defs {
		fmt.Printf("  %-28s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up (a cold page cache, a busy disk) does not move it.
const setupRuns = 7

// timeSetups runs setup n times and returns the median wall time in seconds
// with the last instance; the earlier instances are released. Repeating it
// makes the set-up time a median rather than one noisy reading.
func timeSetups[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last, zero T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			// Drop the previous instance before collecting, so each set-up
			// starts from the same heap and the peak RSS does not depend on
			// when the collector ran.
			release(last)
			last = zero
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, medianOf(secs), nil
}
