package tensor

// Register-blocked micro-kernels. Each function consumes packed panels (see
// micro.go for the packing layouts) and carries its accumulators as plain
// values, so the compiler keeps the whole tile in registers across the k
// loop. Accumulator s_rc sums a[r][p]·b[p][c] over p in strictly ascending
// order — the same per-element summation order as the reference kernels in
// linalg_ref.go — which is what makes every tile shape bit-identical to the
// PR-1 blocked kernels on finite inputs (DESIGN.md §12).
//
// This file must stay free of bounds checks: the loops are driven by slice
// lengths (`for len(ap) >= MR && len(bp) >= NR`), which the compiler's prove
// pass turns into check-free loads, and the functions neither index with
// computed offsets nor write to slices. CI builds the package with
// `-gcflags=-d=ssa/check_bce` and fails if this file appears in the output.
//
// Panel layouts: ap is MR-interleaved (ap[p*MR+r] = A[r][p]) and bp is
// NR-interleaved (bp[p*NR+c] = B[p][c]); a 1-wide panel of either operand is
// just a contiguous row/column, so the row- and column-tail kernels accept
// raw rows directly.

// mm2x4 advances a 2×4 tile over the packed panels, returning the updated
// accumulators.
func mm2x4(ap, bp []float64,
	s00, s01, s02, s03,
	s10, s11, s12, s13 float64) (
	r00, r01, r02, r03,
	r10, r11, r12, r13 float64) {
	for len(ap) >= 2 && len(bp) >= 4 {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		s00 += a0 * b0
		s01 += a0 * b1
		s02 += a0 * b2
		s03 += a0 * b3
		s10 += a1 * b0
		s11 += a1 * b1
		s12 += a1 * b2
		s13 += a1 * b3
		ap = ap[2:]
		bp = bp[4:]
	}
	return s00, s01, s02, s03, s10, s11, s12, s13
}

// mm4x4 advances a 4×4 tile. Sixteen accumulators oversubscribe the sixteen
// float registers, so some spill; it is the portable fallback for the 4×4
// tile, which on amd64 runs the vector kernel instead (microkernel_amd64.go).
func mm4x4(ap, bp []float64,
	s00, s01, s02, s03,
	s10, s11, s12, s13,
	s20, s21, s22, s23,
	s30, s31, s32, s33 float64) (
	r00, r01, r02, r03,
	r10, r11, r12, r13,
	r20, r21, r22, r23,
	r30, r31, r32, r33 float64) {
	for len(ap) >= 4 && len(bp) >= 4 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		s00 += a0 * b0
		s01 += a0 * b1
		s02 += a0 * b2
		s03 += a0 * b3
		s10 += a1 * b0
		s11 += a1 * b1
		s12 += a1 * b2
		s13 += a1 * b3
		s20 += a2 * b0
		s21 += a2 * b1
		s22 += a2 * b2
		s23 += a2 * b3
		s30 += a3 * b0
		s31 += a3 * b1
		s32 += a3 * b2
		s33 += a3 * b3
		ap = ap[4:]
		bp = bp[4:]
	}
	return s00, s01, s02, s03, s10, s11, s12, s13,
		s20, s21, s22, s23, s30, s31, s32, s33
}

// mm1x4 advances a 1×4 row-tail tile: one raw A row against a 4-wide panel.
func mm1x4(arow, bp []float64, s0, s1, s2, s3 float64) (r0, r1, r2, r3 float64) {
	for len(arow) >= 1 && len(bp) >= 4 {
		a := arow[0]
		s0 += a * bp[0]
		s1 += a * bp[1]
		s2 += a * bp[2]
		s3 += a * bp[3]
		arow = arow[1:]
		bp = bp[4:]
	}
	return s0, s1, s2, s3
}

// mm4x1 advances a 4×1 column-tail tile: a 4-interleaved A panel against one
// B column.
func mm4x1(ap, bcol []float64, s0, s1, s2, s3 float64) (r0, r1, r2, r3 float64) {
	for len(ap) >= 4 && len(bcol) >= 1 {
		b := bcol[0]
		s0 += ap[0] * b
		s1 += ap[1] * b
		s2 += ap[2] * b
		s3 += ap[3] * b
		ap = ap[4:]
		bcol = bcol[1:]
	}
	return s0, s1, s2, s3
}

// mm2x1 advances a 2×1 column-tail tile.
func mm2x1(ap, bcol []float64, s0, s1 float64) (r0, r1 float64) {
	for len(ap) >= 2 && len(bcol) >= 1 {
		b := bcol[0]
		s0 += ap[0] * b
		s1 += ap[1] * b
		ap = ap[2:]
		bcol = bcol[1:]
	}
	return s0, s1
}

// mm1x1 is the corner tile: a single running sum over p ascending. It must
// stay a single accumulator chain — a multi-lane unroll here would change
// the summation order and break bit-identity with the reference kernels.
func mm1x1(arow, bcol []float64, s float64) float64 {
	for len(arow) >= 1 && len(bcol) >= 1 {
		s += arow[0] * bcol[0]
		arow = arow[1:]
		bcol = bcol[1:]
	}
	return s
}
