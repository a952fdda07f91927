package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The worker pool replaces the per-call `go func` fan-out the kernels and
// the nn layers used to do: a fixed set of goroutines is started once
// (lazily) and every Parallel call afterwards launches zero goroutines.
//
// Deadlock freedom under nesting (a conv layer parallelizes over samples and
// each sample's matmul parallelizes over rows) comes from two rules:
//
//  1. The submitting goroutine always works on its own job; helpers are
//     invited with non-blocking channel sends and merely steal chunks.
//  2. Workers never block on anything except the job channel, so a job's
//     chunks are always drained by goroutines that are actively running.
//
// The chunk partition of [0, n) depends only on n and the process-wide
// partition grain — never on the pool's width or on how many helpers
// actually join — so callers that keep per-chunk state (per-chunk gradient
// partials, MatMulTransA partial products) get deterministic,
// schedule-independent results that are also identical across pools of
// different sizes. That width-independence is what lets data-parallel
// training (train.Network's replicas) reproduce the sequential trainer bit
// for bit.
//
// The pool is also the concurrency budget: Each lets a caller run R
// replica bodies as pool jobs instead of spawning R goroutines, so the
// total number of goroutines doing work at any instant stays bounded by
// the pool size (workers + submitter) even when each body issues nested
// Parallel calls.

// serialCutoff is the row count below which Parallel runs on the calling
// goroutine. The default was benchmark-tuned with BenchmarkParallelCutoff
// (see bench_test.go): job post + steal overhead is ~1µs, so rows cheaper
// than ~15ns each need n in the tens before fan-out pays for itself. It is
// the same compiled-in value in every process; only tests and benchmarks
// change it (setSerialCutoff) to force the fan-out path.
var serialCutoff int64 = 64

// partitionGrain is the maximum chunk count Chunks partitions a range into.
// It is captured from GOMAXPROCS at startup and pinned with
// SetPartitionGrain by cli.ApplyProcs (-procs) and by distnet trainers from
// the coordinator's Welcome, rather than read from each pool's width, so
// that the partition — and therefore every per-chunk floating-point
// reduction — is a pure function of n, identical no matter which pool
// executes the job or how many replicas share the machine.
var partitionGrain = int64(runtime.GOMAXPROCS(0))

// SetPartitionGrain pins the maximum chunk count used by every pool's
// partition. Fixing it to the same value on different machines makes
// chunked reductions bit-identical across them.
func SetPartitionGrain(n int) {
	if n < 1 {
		n = 1
	}
	atomic.StoreInt64(&partitionGrain, int64(n))
}

// PartitionGrain returns the current partition grain.
func PartitionGrain() int { return int(atomic.LoadInt64(&partitionGrain)) }

// setSerialCutoff overrides the minimum n for which Parallel fans out.
func setSerialCutoff(n int) {
	if n < 1 {
		n = 1
	}
	atomic.StoreInt64(&serialCutoff, int64(n))
}

// SerialCutoff returns the current serial/parallel threshold.
func SerialCutoff() int { return int(atomic.LoadInt64(&serialCutoff)) }

// WorkerPool is a persistent pool of worker goroutines executing chunked
// range jobs. The zero value with a Size is usable; methods start the
// workers on first use.
type WorkerPool struct {
	// Size is the number of goroutines that can work on a job concurrently,
	// including the submitter. 0 means GOMAXPROCS at first use.
	Size int

	once    sync.Once
	tasks   chan *rangeJob
	started atomic.Bool // set after tasks exists; orders QueueDepth reads

	// Fan-out counters (atomic, touched only on the submit path — never on
	// serial Parallel calls, whose per-op cost the extra add would distort).
	jobs, chunks int64
}

// PoolStats is a snapshot of a pool's cumulative fan-out activity.
// Chunks/Jobs is the mean partition width — how much concurrency each
// fan-out actually exposed.
type PoolStats struct {
	// Jobs counts Parallel/Each invocations that fanned out (serial runs
	// are not counted).
	Jobs int64
	// Chunks counts chunks executed across all fanned-out jobs.
	Chunks int64
}

// Stats returns the cumulative fan-out counters.
func (p *WorkerPool) Stats() PoolStats {
	return PoolStats{Jobs: atomic.LoadInt64(&p.jobs), Chunks: atomic.LoadInt64(&p.chunks)}
}

// QueueDepth returns the number of posted jobs not yet picked up by a
// worker — a scrape-time occupancy signal (0 when the pool is keeping up).
func (p *WorkerPool) QueueDepth() int {
	if !p.started.Load() {
		return 0
	}
	return len(p.tasks)
}

// width is the effective pool size. It reads only the immutable Size
// configuration (set before first use), so it is race-free.
func (p *WorkerPool) width() int {
	if p.Size > 0 {
		return p.Size
	}
	return runtime.GOMAXPROCS(0)
}

// rangeJob is one Parallel invocation: a fixed partition of [0, n) into
// chunks claimed by an atomic counter.
type rangeJob struct {
	n, chunk, chunks int
	next             int64
	f                func(chunk, lo, hi int)
	wg               sync.WaitGroup
}

// run claims and executes chunks until the job is exhausted.
func (j *rangeJob) run() {
	for {
		c := int(atomic.AddInt64(&j.next, 1)) - 1
		if c >= j.chunks {
			return
		}
		// Clamp both bounds: with chunk = ceil(n/chunks) the last chunk
		// indices can start past n (e.g. n=65, 16 chunks -> chunk=5, chunk
		// 14 starts at 70). Those chunks run f with an empty range lo == hi
		// == n, which is safe for every caller (slices [lo*c:hi*c] are
		// empty, loops don't execute) and keeps chunk indices dense so
		// per-chunk state sized with Chunks(n) still works.
		lo := min(c*j.chunk, j.n)
		hi := min(lo+j.chunk, j.n)
		j.f(c, lo, hi)
		j.wg.Done()
	}
}

func (p *WorkerPool) start() {
	p.once.Do(func() {
		size := p.width()
		// Buffered so invitations almost never fall back to the submitter
		// doing all the work; a full channel is still fine (see Parallel).
		p.tasks = make(chan *rangeJob, 4*size)
		for i := 1; i < size; i++ {
			go func() {
				for j := range p.tasks {
					j.run()
				}
			}()
		}
		p.started.Store(true)
	})
}

// Chunks returns the number of chunks ParallelIndexed will partition
// [0, n) into — callers allocating per-chunk state size it with this. The
// partition is a pure function of n and the process-wide partition grain
// (not the pool width), so per-chunk reductions give the same bits on any
// pool.
func (p *WorkerPool) Chunks(n int) int {
	if n <= 0 {
		return 0
	}
	grain := int(atomic.LoadInt64(&partitionGrain))
	if grain <= 1 || int64(n) < atomic.LoadInt64(&serialCutoff) {
		return 1
	}
	return min(grain, n)
}

// ParallelIndexed partitions [0, n) into Chunks(n) contiguous chunks and
// runs f(chunk, lo, hi) for each, using the pool's workers plus the calling
// goroutine. f is called exactly once per chunk; chunk indices are dense in
// [0, Chunks(n)). When n does not divide evenly, trailing chunks may get an
// empty range (lo == hi == n). It is safe to call from inside another job (nested
// parallelism) and from multiple goroutines at once.
func (p *WorkerPool) ParallelIndexed(n int, f func(chunk, lo, hi int)) {
	chunks := p.Chunks(n)
	if chunks == 0 {
		return
	}
	if chunks == 1 {
		f(0, 0, n)
		return
	}
	p.submit(&rangeJob{n: n, chunk: (n + chunks - 1) / chunks, chunks: chunks, f: f})
}

// submit posts a job, helps run it, and waits for every chunk to finish.
func (p *WorkerPool) submit(j *rangeJob) {
	p.start()
	atomic.AddInt64(&p.jobs, 1)
	atomic.AddInt64(&p.chunks, int64(j.chunks))
	j.wg.Add(j.chunks)
	// Invite helpers without ever blocking: if the queue is full the
	// submitter simply runs more chunks itself. There is no point inviting
	// more helpers than there are chunks beyond the submitter's own.
	helpers := min(p.width(), j.chunks) - 1
invite:
	for i := 0; i < helpers; i++ {
		select {
		case p.tasks <- j:
		default:
			break invite
		}
	}
	j.run()
	j.wg.Wait()
}

// Each runs f(i) for every i in [0, n) as n single-index pool chunks,
// regardless of the serial cutoff and partition grain. It is the
// concurrency-budget primitive for coarse replica fan-out: each body runs
// on a pool worker (or the submitter), so n replicas never add goroutines
// beyond the pool's size, and nested Parallel calls inside a body steal
// chunks from the same fixed worker set instead of oversubscribing the
// machine. Bodies with distinct i may run concurrently; Each returns after
// all n have finished.
func (p *WorkerPool) Each(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		f(0)
		return
	}
	p.submit(&rangeJob{n: n, chunk: 1, chunks: n, f: func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	}})
}

// Parallel runs f over contiguous sub-ranges of [0, n) concurrently; the
// chunk index is dropped for callers that don't keep per-chunk state.
func (p *WorkerPool) Parallel(n int, f func(lo, hi int)) {
	p.ParallelIndexed(n, func(_, lo, hi int) { f(lo, hi) })
}

// defaultPool serves the package-level Parallel helpers used by the kernels
// and the nn layers.
var defaultPool WorkerPool

// Parallel runs f over contiguous sub-ranges of [0, n) on the shared
// process-wide worker pool.
func Parallel(n int, f func(lo, hi int)) { defaultPool.Parallel(n, f) }

// ParallelIndexed is the chunk-indexed variant on the shared pool; the
// partition is deterministic (see WorkerPool.ParallelIndexed).
func ParallelIndexed(n int, f func(chunk, lo, hi int)) { defaultPool.ParallelIndexed(n, f) }

// ParallelChunks returns the chunk count the shared pool will use for n.
func ParallelChunks(n int) int { return defaultPool.Chunks(n) }

// Pool returns the shared process-wide worker pool so coarse-grained
// callers (train.Network's replica fan-out) can schedule work on the same
// fixed worker set the kernels use instead of spawning goroutines.
func Pool() *WorkerPool { return &defaultPool }
