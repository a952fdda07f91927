package tensor

import "fmt"

// The MatMul family dispatches between two interchangeable kernel sets that
// produce bit-identical results: the PR-1 cache-blocked reference kernels in
// linalg_ref.go (tile shape 0×0) and the register-blocked micro-kernels in
// microkernel.go fed by the panel packers in micro.go. The active tile shape
// and packing cutoff live in tile.go.

func checkMat2(op string, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 operands")
	}
}

func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst has shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

// MatMul computes C = A·B for rank-2 tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) *Tensor {
	checkMat2("MatMul", a, b)
	c := New(a.Shape[0], b.Shape[1])
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes dst = A·B without allocating: dst (m×n) is fully
// overwritten. The kernel tiles over k and j with a packed panel of B drawn
// from the arena and reused across the parallel i-loop; the per-element
// accumulation order is identical to the naive i-k-j loop, so results are
// bit-identical to MatMul and deterministic.
func MatMulInto(dst, a, b *Tensor) {
	checkMat2("MatMulInto", a, b)
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	checkDst("MatMulInto", dst, m, n)
	matMulKernel(dst.Data, a.Data, b.Data, m, k, n)
}

// matMulKernel is the shared C = A·B dispatcher: small products run the
// serial axpy loop, the 0×0 tile runs the reference blocked kernel, and
// everything else packs B into NR-wide panels once and streams the
// register-blocked row driver over them.
func matMulKernel(c, a, b []float64, m, k, n int) {
	if m*k*n < SmallCutoff() {
		refMatMulSerial(c, a, b, m, k, n)
		return
	}
	mr, nr := TileShape()
	if mr == 0 {
		refMatMulKernel(c, a, b, m, k, n)
		return
	}
	bp := DefaultArena.GetSlice(k * n)
	packPanels(bp, b, k, n, n, nr)
	// The serial branch calls the row driver directly: constructing the
	// closure would heap-allocate even when it is never sent to the pool.
	if ParallelChunks(m) <= 1 {
		microMatMulRows(c, a, bp, 0, m, k, n, mr)
	} else {
		Parallel(m, func(lo, hi int) {
			microMatMulRows(c, a, bp, lo, hi, k, n, mr)
		})
	}
	DefaultArena.PutSlice(bp)
}

// MatMulTransA computes C = Aᵀ·B where A is k×m and B is k×n, yielding m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	checkMat2("MatMulTransA", a, b)
	if a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	c := New(a.Shape[1], b.Shape[1])
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransAInto computes dst = Aᵀ·B without allocating from the heap.
// The reduction over k is split into the worker pool's deterministic chunk
// partition; each chunk accumulates into a private partial drawn from the
// arena and partials are summed in chunk order over disjoint row ranges —
// lock-free and schedule-independent, unlike the old mutex merge.
func MatMulTransAInto(dst, a, b *Tensor) {
	matMulTransAPool(&defaultPool, dst, a, b)
}

// matMulTransAPool is MatMulTransAInto over an explicit worker pool, so the
// multi-chunk reduction is testable on any machine.
func matMulTransAPool(pool *WorkerPool, dst, a, b *Tensor) {
	checkMat2("MatMulTransAInto", a, b)
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	checkDst("MatMulTransAInto", dst, m, n)
	c := dst.Data
	chunks := pool.Chunks(k)
	if chunks <= 1 {
		clear(c[:m*n])
		transAAccum(c, a.Data, b.Data, 0, k, m, n)
		return
	}
	mn := m * n
	partials := DefaultArena.GetSlice(chunks * mn)
	clear(partials)
	pool.ParallelIndexed(k, func(chunk, lo, hi int) {
		transAAccum(partials[chunk*mn:(chunk+1)*mn], a.Data, b.Data, lo, hi, m, n)
	})
	// Deterministic reduce: every output row range sums the partials in
	// ascending chunk order.
	pool.Parallel(m, func(lo, hi int) {
		copy(c[lo*n:hi*n], partials[lo*n:hi*n])
		for ch := 1; ch < chunks; ch++ {
			base := ch * mn
			dst := c[lo*n : hi*n]
			src := partials[base+lo*n : base+hi*n]
			for i, v := range src {
				dst[i] += v
			}
		}
	})
	DefaultArena.PutSlice(partials)
}

// transAAccum accumulates local += A[lo:hi, :]ᵀ · B[lo:hi, :] where A is k×m
// and B is k×n; local is an m×n buffer the caller has zeroed (or holds a
// prior chunk's partial). Large chunks pack both operand slabs into panels
// and run the accumulate-mode tile driver; the result is bit-identical to
// the reference loop because every element still extends its own
// accumulator chain over p ascending.
func transAAccum(local, a, b []float64, lo, hi, m, n int) {
	kk := hi - lo
	mr, nr := TileShape()
	if mr == 0 || kk*m*n < SmallCutoff() {
		refTransAAccum(local, a, b, lo, hi, m, n)
		return
	}
	ap := DefaultArena.GetSlice(kk * m)
	bp := DefaultArena.GetSlice(kk * n)
	packPanels(ap, a[lo*m:], kk, m, m, mr)
	packPanels(bp, b[lo*n:], kk, n, n, nr)
	microTransAPanels(local, ap, bp, kk, m, n, mr)
	DefaultArena.PutSlice(bp)
	DefaultArena.PutSlice(ap)
}

// MatMulTransB computes C = A·Bᵀ where A is m×k and B is n×k, yielding m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	checkMat2("MatMulTransB", a, b)
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	c := New(a.Shape[0], b.Shape[0])
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes dst = A·Bᵀ without allocating. Both operands
// are traversed row-major (the inner product runs along contiguous k), and
// four output columns are computed per pass so each load of A feeds four
// independent accumulators.
func MatMulTransBInto(dst, a, b *Tensor) {
	checkMat2("MatMulTransBInto", a, b)
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	checkDst("MatMulTransBInto", dst, m, n)
	matMulTransBKernel(dst.Data, a.Data, b.Data, m, k, n)
}

// matMulTransBKernel dispatches C = A·Bᵀ. The rows of B are the columns of
// the effective right operand, so packRowsT re-interleaves them into exactly
// the NR-wide panel layout microMatMulRows streams; small products and the
// 0×0 tile keep the reference 4-wide dot kernel. Both paths sum each output
// element over p ascending, so they are bit-identical.
func matMulTransBKernel(c, a, b []float64, m, k, n int) {
	mr, nr := TileShape()
	if mr == 0 || m*k*n < SmallCutoff() {
		if ParallelChunks(m) <= 1 {
			refMatMulTransBRows(c, a, b, 0, m, k, n)
		} else {
			Parallel(m, func(lo, hi int) {
				refMatMulTransBRows(c, a, b, lo, hi, k, n)
			})
		}
		return
	}
	bp := DefaultArena.GetSlice(n * k)
	packRowsT(bp, b, n, k, k, nr)
	if ParallelChunks(m) <= 1 {
		microMatMulRows(c, a, bp, 0, m, k, n, mr)
	} else {
		Parallel(m, func(lo, hi int) {
			microMatMulRows(c, a, bp, lo, hi, k, n, mr)
		})
	}
	DefaultArena.PutSlice(bp)
}

// Transpose returns Aᵀ for a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 operand")
	}
	t := New(a.Shape[1], a.Shape[0])
	TransposeInto(t, a)
	return t
}

// TransposeInto writes Aᵀ into dst, tiled so both matrices are visited in
// cache-line-sized blocks.
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 operand")
	}
	m, n := a.Shape[0], a.Shape[1]
	checkDst("TransposeInto", dst, n, m)
	const tile = 32
	for ii := 0; ii < m; ii += tile {
		ih := min(ii+tile, m)
		for jj := 0; jj < n; jj += tile {
			jh := min(jj+tile, n)
			for i := ii; i < ih; i++ {
				row := a.Data[i*n:]
				for j := jj; j < jh; j++ {
					dst.Data[j*m+i] = row[j]
				}
			}
		}
	}
}
