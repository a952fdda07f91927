package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gmreg/internal/core"
	"gmreg/internal/models"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

var testSpec = models.Spec{Family: "mlp", In: 8, Hidden: 16, Classes: 3}

// makeCheckpoint builds an mlp checkpoint whose weights are deterministically
// perturbed by salt, so different salts give bitwise-distinguishable models.
func makeCheckpoint(t *testing.T, salt float64) *Checkpoint {
	t.Helper()
	net, err := testSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		for i := range p.W {
			p.W[i] += salt * float64(i%7) * 0.01
		}
	}
	ckpt, err := NewCheckpoint(testSpec, net, nil, map[string]string{"salt": "test"})
	if err != nil {
		t.Fatal(err)
	}
	return ckpt
}

// predictSerial is the single-sample reference path: one batch-of-1 Forward
// through a private replica, same softmax as the predictor.
func predictSerial(t *testing.T, ckpt *Checkpoint, x []float64) Result {
	t.Helper()
	net, err := ckpt.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(testSpec.InputShape(1)...)
	copy(in.Data, x)
	out := net.Forward(in, false)
	return Result{Label: tensor.ArgMax(out.Data), Probs: softmax(out.Data)}
}

func testInputs(n int) [][]float64 {
	rng := tensor.NewRNG(42)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, testSpec.In)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return xs
}

// TestPredictCoalescesAndHotSwapsUnderLoad is the subsystem's core guarantee,
// run under -race: N concurrent predicts through the micro-batcher while a
// hot-swap lands mid-flight. No request is dropped, every response is
// bit-identical to a serial forward under the version it reports, and the
// forward count proves coalescing (< N).
func TestPredictCoalescesAndHotSwapsUnderLoad(t *testing.T) {
	const n = 200
	ckpt1, ckpt2 := makeCheckpoint(t, 1), makeCheckpoint(t, 2)
	v1 := store.Version{Hash: "h1", Seq: 1}
	v2 := store.Version{Hash: "h2", Seq: 2}
	m1 := &Model{Key: "m", Version: v1, Ckpt: ckpt1}
	m2 := &Model{Key: "m", Version: v2, Ckpt: ckpt2}

	p, err := NewPredictor(m1, Config{Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond, QueueCap: n})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	xs := testInputs(n)
	want := map[string][]Result{"h1": make([]Result, n), "h2": make([]Result, n)}
	for i, x := range xs {
		want["h1"][i] = predictSerial(t, ckpt1, x)
		want["h2"][i] = predictSerial(t, ckpt2, x)
	}

	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.Predict(context.Background(), xs[i])
		}(i)
		if i == n/2 {
			// Let at least one v1 batch complete so the swap is genuinely
			// mid-flight and responses mix versions.
			for p.Stats().Forwards == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			if err := p.Swap(m2); err != nil {
				t.Error(err)
			}
		}
	}
	wg.Wait()

	seen := map[string]int{}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d dropped: %v", i, errs[i])
		}
		exp, ok := want[results[i].Version.Hash]
		if !ok {
			t.Fatalf("request %d reports unknown version %+v", i, results[i].Version)
		}
		seen[results[i].Version.Hash]++
		if results[i].Label != exp[i].Label {
			t.Fatalf("request %d label %d, serial reference %d", i, results[i].Label, exp[i].Label)
		}
		for j, pr := range results[i].Probs {
			if pr != exp[i].Probs[j] {
				t.Fatalf("request %d prob[%d] = %v not bit-identical to serial %v (version %s)",
					i, j, pr, exp[i].Probs[j], results[i].Version.Hash)
			}
		}
	}
	st := p.Stats()
	if st.Requests != n {
		t.Fatalf("admitted %d requests, want %d", st.Requests, n)
	}
	if st.Forwards >= n {
		t.Fatalf("no coalescing: %d forwards for %d requests", st.Forwards, n)
	}
	if seen["h1"] == 0 || seen["h2"] == 0 {
		t.Fatalf("responses do not mix versions across the swap: %v", seen)
	}
	t.Logf("coalesced %d requests into %d forwards; versions served: %v", n, st.Forwards, seen)
}

func TestPredictorAdmissionControl(t *testing.T) {
	m := &Model{Key: "m", Version: store.Version{Hash: "h", Seq: 1}, Ckpt: makeCheckpoint(t, 1)}
	p, err := NewPredictor(m, Config{Replicas: 1, MaxBatch: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Hold the only replica: the executor stalls acquiring it, so the queue
	// backs up. At most QueueCap+1 requests can be in flight; the rest must
	// fast-fail with ErrOverloaded rather than block.
	rs := p.pool.Load()
	net := <-rs.replicas

	const k = 3 // QueueCap + 2
	x := testInputs(1)[0]
	errc := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			_, err := p.Predict(context.Background(), x)
			errc <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for p.Stats().Shed == 0 {
		select {
		case <-deadline:
			t.Fatal("no request was shed")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	rs.replicas <- net

	var shed, served int
	for i := 0; i < k; i++ {
		switch err := <-errc; {
		case err == nil:
			served++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed == 0 || served == 0 {
		t.Fatalf("shed=%d served=%d; want both nonzero", shed, served)
	}
	p.Close()
}

func TestPredictorGracefulDrain(t *testing.T) {
	m := &Model{Key: "m", Version: store.Version{Hash: "h", Seq: 1}, Ckpt: makeCheckpoint(t, 1)}
	p, err := NewPredictor(m, Config{Replicas: 1, MaxBatch: 4, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}

	// Stall the executor, queue up work, then Close: everything already
	// admitted must still get a real response.
	rs := p.pool.Load()
	net := <-rs.replicas

	const k = 8
	xs := testInputs(k)
	errc := make(chan error, k)
	var admitted sync.WaitGroup
	for i := 0; i < k; i++ {
		admitted.Add(1)
		go func(i int) {
			admitted.Done()
			_, err := p.Predict(context.Background(), xs[i])
			errc <- err
		}(i)
	}
	admitted.Wait()
	for p.Stats().Requests < k {
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	rs.replicas <- net
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain")
	}
	for i := 0; i < k; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("queued request dropped during drain: %v", err)
		}
	}
	if _, err := p.Predict(context.Background(), xs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Predict after Close: %v, want ErrClosed", err)
	}
}

func TestPredictorRejectsBadInputAndSpecChange(t *testing.T) {
	m := &Model{Key: "m", Version: store.Version{Hash: "h", Seq: 1}, Ckpt: makeCheckpoint(t, 1)}
	p, err := NewPredictor(m, Config{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Predict(context.Background(), make([]float64, testSpec.In+1)); err == nil {
		t.Fatal("expected error for wrong feature count")
	}
	otherNet, _ := models.Spec{Family: "mlp", In: 4, Hidden: 8, Classes: 2}.Build()
	otherCkpt, _ := NewCheckpoint(models.Spec{Family: "mlp", In: 4, Hidden: 8, Classes: 2}, otherNet, nil, nil)
	other := &Model{Key: "m", Version: store.Version{Hash: "h2", Seq: 2}, Ckpt: otherCkpt}
	if err := p.Swap(other); err == nil {
		t.Fatal("expected architecture-change swap to be rejected")
	}
	if got := p.Version().Hash; got != "h" {
		t.Fatalf("failed swap moved version to %s", got)
	}
}

func TestRegistryPinRollback(t *testing.T) {
	st := store.New()
	key := "mlp-model"
	c1, c2 := makeCheckpoint(t, 1), makeCheckpoint(t, 2)
	v1, err := PutCheckpoint(st, key, c1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := PutCheckpoint(st, key, c2)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("junk", []byte("not a checkpoint"))

	reg := NewRegistry(st)
	var swaps []store.Version
	reg.OnSwap(func(m *Model) { swaps = append(swaps, m.Version) })
	reg.Refresh()

	m, ok := reg.Current(key)
	if !ok || m.Version != v2 {
		t.Fatalf("after Refresh serving %+v, want latest %+v", m, v2)
	}

	// Rollback: pin v1, then resume latest.
	m, err = reg.Pin(key, 1)
	if err != nil || m.Version != v1 {
		t.Fatalf("Pin(1) = %+v, %v; want %+v", m, err, v1)
	}
	m, err = reg.Pin(key, 0)
	if err != nil || m.Version != v2 {
		t.Fatalf("Pin(0) = %+v, %v; want %+v", m, err, v2)
	}
	// A bad seq must not disturb the current pin state.
	if _, err := reg.Pin(key, 99); err == nil {
		t.Fatal("expected error pinning nonexistent version")
	}
	if m, _ := reg.Current(key); m.Version != v2 {
		t.Fatalf("failed pin moved serving version to %+v", m.Version)
	}
	wantSwaps := []store.Version{v2, v1, v2}
	if len(swaps) != len(wantSwaps) {
		t.Fatalf("swap announcements %+v, want %+v", swaps, wantSwaps)
	}
	for i := range swaps {
		if swaps[i] != wantSwaps[i] {
			t.Fatalf("swap %d = %+v, want %+v", i, swaps[i], wantSwaps[i])
		}
	}

	// The junk key is reported, not served.
	var junk *ModelStatus
	for _, s := range reg.List() {
		if s.Key == "junk" {
			s := s
			junk = &s
		}
	}
	if junk == nil || junk.Err == "" {
		t.Fatalf("junk key status %+v, want a load error", junk)
	}
	if _, ok := reg.Current("junk"); ok {
		t.Fatal("junk key must not be served")
	}
}

func TestRegistryWatchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.store")
	key := "m"

	st := store.New()
	if _, err := PutCheckpoint(st, key, makeCheckpoint(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(store.New())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { reg.WatchFile(ctx, path, 5*time.Millisecond); close(done) }()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for !cond() {
			select {
			case <-deadline:
				t.Fatalf("timed out waiting for %s", what)
			default:
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	waitFor(func() bool { _, ok := reg.Current(key); return ok }, "initial load")

	// A second trained version lands in the file; the watcher must swap.
	if _, err := PutCheckpoint(st, key, makeCheckpoint(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	waitFor(func() bool { m, _ := reg.Current(key); return m != nil && m.Version.Seq == 2 }, "watched swap to v2")

	cancel()
	<-done
}

func TestCheckpointRoundTrip(t *testing.T) {
	ckpt := makeCheckpoint(t, 3)
	gm, err := core.NewGM(16, core.DefaultConfig(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Regs = []train.RegState{{Name: "fc1/W", GM: gm.Snapshot()}}
	b, err := ckpt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != ckpt.Spec || !reflect.DeepEqual(got.Meta, []MetaEntry{{"salt", "test"}}) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Regs, ckpt.Regs) {
		t.Fatalf("GM records %+v, want %+v", got.Regs, ckpt.Regs)
	}
	if _, err := core.FromSnapshot(got.Regs[0].GM); err != nil {
		t.Fatalf("stored GM does not restore: %v", err)
	}
	x := testInputs(1)[0]
	a, b2 := predictSerial(t, ckpt, x), predictSerial(t, got, x)
	for i := range a.Probs {
		if a.Probs[i] != b2.Probs[i] {
			t.Fatal("rebuilt checkpoint is not bit-identical")
		}
	}
	if _, err := UnmarshalCheckpoint([]byte("garbage")); err == nil {
		t.Fatal("expected error for non-checkpoint blob")
	}
	if _, err := UnmarshalCheckpoint(nil); err == nil {
		t.Fatal("expected error for empty blob")
	}
}

// Equal models must encode to equal bytes, so the store's content hash
// names the model: provenance is stored in key order, not map order.
func TestCheckpointBytesDeterministic(t *testing.T) {
	net, err := testSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{"dataset": "d", "seed": "1", "model": "mlp", "test_accuracy": "0.9", "regularizer": "gm"}
	var first []byte
	for i := 0; i < 20; i++ {
		ckpt, err := NewCheckpoint(testSpec, net, nil, meta)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ckpt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("marshal %d differs from the first", i)
		}
	}
}

// A checkpoint with a NaN weight is rejected where it enters the server: the
// registry keeps serving the last good version and reports the error,
// instead of swapping in a model whose every /predict fails to encode.
func TestRegistryRejectsNonFiniteCheckpoint(t *testing.T) {
	st := store.New()
	key := "mlp-model"
	v1, err := PutCheckpoint(st, key, makeCheckpoint(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(st)
	reg.Refresh()

	bad := makeCheckpoint(t, 2)
	bad.Groups[1].W[3] = math.NaN()
	if _, err := PutCheckpoint(st, key, bad); err != nil {
		t.Fatal(err)
	}
	reg.Refresh()
	if m, ok := reg.Current(key); !ok || m.Version != v1 {
		t.Fatalf("serving %+v after a NaN version, want %+v", m, v1)
	}
	ls := reg.List()
	if len(ls) != 1 || !strings.Contains(ls[0].Err, "non-finite") {
		t.Fatalf("List = %+v, want a non-finite error on %q", ls, key)
	}

	bad.Groups[1].W[3] = 0
	bad.Stats = []train.StatState{{Name: "bn", Mean: []float64{math.Inf(1)}, Var: []float64{1}}}
	b, err := bad.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCheckpoint(b); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("+Inf batch-norm statistic: got %v", err)
	}
}
