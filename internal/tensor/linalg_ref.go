package tensor

// The PR-1 cache-blocked kernels, kept verbatim as (a) the bit-identity
// oracle the register-blocked micro-kernels are property-tested against,
// (b) the baseline side of the gmreg-bench micro-kernel comparison rows,
// and (c) the kernels behind the 0×0 tile shape (SetTileShape(0, 0)).
//
// Every kernel here accumulates each output element c[i][j] over p in
// ascending order, which is the summation-order contract the micro-kernels
// must reproduce bit for bit (DESIGN.md §12).

// Blocking parameters for the packed reference MatMul kernel. B is repacked
// into KC×NC panels so the inner axpy loop streams a contiguous panel row
// that stays resident in L1/L2 while the kernel sweeps the rows of A. With
// float64 a panel block is at most 256×128×8 = 256 KiB.
const (
	mmKC = 256 // k-extent of a packed panel block
	mmNC = 128 // j-extent of a packed panel block
)

// refMatMulKernel is the blocked C = A·B implementation (the pre-micro-kernel
// hot path). Small products run a plain serial axpy loop; larger ones pack B
// into block-major panels and fan the row loop out on the worker pool.
func refMatMulKernel(c, a, b []float64, m, k, n int) {
	if m*k*n < SmallCutoff() {
		refMatMulSerial(c, a, b, m, k, n)
		return
	}
	// Pack B once into block-major panels: jc-major, kc-minor, each block
	// row-major kb×nb. Compute walks blocks in the same order with a
	// running offset, so no block index arithmetic is needed.
	packed := DefaultArena.GetSlice(k * n)
	off := 0
	for jc := 0; jc < n; jc += mmNC {
		nb := min(mmNC, n-jc)
		for kc := 0; kc < k; kc += mmKC {
			kb := min(mmKC, k-kc)
			for p := 0; p < kb; p++ {
				src := b[(kc+p)*n+jc:]
				copy(packed[off+p*nb:off+(p+1)*nb], src[:nb])
			}
			off += kb * nb
		}
	}
	// The serial branch calls the row kernel directly: constructing the
	// closure would heap-allocate even when it is never sent to the pool.
	if ParallelChunks(m) <= 1 {
		refMatMulPackedRows(c, a, packed, 0, m, k, n)
	} else {
		Parallel(m, func(lo, hi int) {
			refMatMulPackedRows(c, a, packed, lo, hi, k, n)
		})
	}
	DefaultArena.PutSlice(packed)
}

// refMatMulSerial is the small-product axpy loop shared by the reference and
// micro dispatchers: below the packing cutoff, panel setup costs more than it
// saves, and the i-k-j order already accumulates each element in ascending p.
func refMatMulSerial(c, a, b []float64, m, k, n int) {
	clear(c[:m*n])
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// refMatMulPackedRows computes rows [lo, hi) of C = A·B against the
// block-major packed copy of B, walking the blocks with a running offset in
// pack order.
func refMatMulPackedRows(c, a, packed []float64, lo, hi, k, n int) {
	clear(c[lo*n : hi*n])
	off := 0
	for jc := 0; jc < n; jc += mmNC {
		nb := min(mmNC, n-jc)
		for kc := 0; kc < k; kc += mmKC {
			kb := min(mmKC, k-kc)
			for i := lo; i < hi; i++ {
				ai := a[i*k+kc : i*k+kc+kb]
				ci := c[i*n+jc : i*n+jc+nb]
				for p, av := range ai {
					if av == 0 {
						continue
					}
					brow := packed[off+p*nb : off+(p+1)*nb]
					for j, bv := range brow {
						ci[j] += av * bv
					}
				}
			}
			off += kb * nb
		}
	}
}

// refTransAAccum accumulates local += A[lo:hi, :]ᵀ · B[lo:hi, :] where A is
// k×m and B is k×n; local is an m×n buffer the caller has zeroed.
func refTransAAccum(local, a, b []float64, lo, hi, m, n int) {
	for p := lo; p < hi; p++ {
		ap := a[p*m : (p+1)*m]
		bp := b[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			li := local[i*n : i*n+n]
			for j, bv := range bp {
				li[j] += av * bv
			}
		}
	}
}

// refMatMulTransBRows computes rows [lo, hi) of C = A·Bᵀ with a 4-wide column
// unroll; each accumulator sums over p in ascending order, so results are
// bit-identical regardless of the unroll.
func refMatMulTransBRows(c, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var s float64
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
}

// RefMatMulInto runs dst = A·B through the PR-1 blocked kernel regardless of
// the active tile configuration — the baseline side of gmreg-bench's
// micro-kernel comparison and the oracle for the edge-shape tests.
func RefMatMulInto(dst, a, b *Tensor) {
	checkMat2("RefMatMulInto", a, b)
	m, k := a.Shape[0], a.Shape[1]
	if k != b.Shape[0] {
		panic("tensor: RefMatMulInto shape mismatch")
	}
	n := b.Shape[1]
	checkDst("RefMatMulInto", dst, m, n)
	refMatMulKernel(dst.Data, a.Data, b.Data, m, k, n)
}

// RefMatMulTransBInto runs dst = A·Bᵀ through the PR-1 4-wide dot kernel.
func RefMatMulTransBInto(dst, a, b *Tensor) {
	checkMat2("RefMatMulTransBInto", a, b)
	m, k := a.Shape[0], a.Shape[1]
	if k != b.Shape[1] {
		panic("tensor: RefMatMulTransBInto shape mismatch")
	}
	n := b.Shape[0]
	checkDst("RefMatMulTransBInto", dst, m, n)
	if ParallelChunks(m) <= 1 {
		refMatMulTransBRows(dst.Data, a.Data, b.Data, 0, m, k, n)
	} else {
		Parallel(m, func(lo, hi int) {
			refMatMulTransBRows(dst.Data, a.Data, b.Data, lo, hi, k, n)
		})
	}
}

// RefMatMulTransAInto runs dst = Aᵀ·B through the PR-1 serial accumulator
// (single chunk; the chunked reduction above it is shared with the micro
// path and unchanged).
func RefMatMulTransAInto(dst, a, b *Tensor) {
	checkMat2("RefMatMulTransAInto", a, b)
	k, m := a.Shape[0], a.Shape[1]
	if k != b.Shape[0] {
		panic("tensor: RefMatMulTransAInto shape mismatch")
	}
	n := b.Shape[1]
	checkDst("RefMatMulTransAInto", dst, m, n)
	clear(dst.Data[:m*n])
	refTransAAccum(dst.Data, a.Data, b.Data, 0, k, m, n)
}
