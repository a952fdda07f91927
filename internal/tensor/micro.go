package tensor

// Panel packing and tile drivers for the register-blocked micro-kernels.
//
// Both MatMul (C = A·B) and MatMulTransB (C = A·Bᵀ) reduce to the same
// driver: B (or Bᵀ) is packed once into NR-wide column panels, and each
// row-chunk worker packs its A rows into MR-interleaved panels on the fly,
// so the inner kernels stream exactly two contiguous buffers. MatMulTransA
// packs both operands of its per-chunk partial product the same way. The
// packing layout is offset-uniform: the panel covering output columns
// [j, j+w) always starts at dst[j*rows], whether w is the full NR or a
// 1-wide tail, so drivers address panels with a single multiply.

// packPanels packs the cols columns of the rows×cols matrix at src (row
// stride ld) into width-interleaved panels: full panels for each aligned
// group of `width` columns, then a 1-wide panel per leftover column. Panel
// element order is p-major: dst[j*rows + p*w + c] = src[p*ld + j + c].
func packPanels(dst, src []float64, rows, ld, cols, width int) {
	j := 0
	for ; j+width <= cols; j += width {
		out := dst[j*rows : (j+width)*rows]
		for p := 0; p < rows; p++ {
			row := src[p*ld+j : p*ld+j+width]
			copy(out[p*width:(p+1)*width], row)
		}
	}
	for ; j < cols; j++ {
		out := dst[j*rows : (j+1)*rows]
		for p := 0; p < rows; p++ {
			out[p] = src[p*ld+j]
		}
	}
}

// packRowsT packs the rows rows of the rows×k matrix at src (row stride ld)
// into width-interleaved transposed panels: dst[r0*k + p*w + r] =
// src[(r0+r)*ld + p]. It is packPanels applied to the transpose, reading
// each source row contiguously. Leftover rows become 1-wide panels (plain
// row copies).
func packRowsT(dst, src []float64, rows, ld, k, width int) {
	r0 := 0
	for ; r0+width <= rows; r0 += width {
		out := dst[r0*k : (r0+width)*k]
		for r := 0; r < width; r++ {
			row := src[(r0+r)*ld : (r0+r)*ld+k]
			o := r
			for _, v := range row {
				out[o] = v
				o += width
			}
		}
	}
	for ; r0 < rows; r0++ {
		copy(dst[r0*k:(r0+1)*k], src[r0*ld:r0*ld+k])
	}
}

// microMatMulRows computes rows [lo, hi) of the m×n product C from row-major
// A (row stride k) and the effective B packed into 4-wide panels (layout
// above, k rows per column). It overwrites C's rows. Tile boundaries are relative to lo,
// which is safe because rows are independent: every element still sums its
// full k extent in ascending p order.
func microMatMulRows(c, a, bp []float64, lo, hi, k, n, mr int) {
	ap := DefaultArena.GetSlice(mr * k)
	i := lo
	for ; i+mr <= hi; i += mr {
		packRowsT(ap, a[i*k:(i+mr)*k], mr, k, k, mr)
		j := 0
		for ; j+4 <= n; j += 4 {
			pb := bp[j*k : (j+4)*k]
			switch mr {
			case 2:
				s00, s01, s02, s03, s10, s11, s12, s13 := mm2x4(ap, pb,
					0, 0, 0, 0, 0, 0, 0, 0)
				c0 := c[i*n+j : i*n+j+4]
				c1 := c[(i+1)*n+j : (i+1)*n+j+4]
				c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
				c1[0], c1[1], c1[2], c1[3] = s10, s11, s12, s13
			case 4:
				if hasSSETile {
					mm4x4tile(&ap[0], &pb[0], k, &c[i*n+j], n, 0)
					continue
				}
				s00, s01, s02, s03, s10, s11, s12, s13,
					s20, s21, s22, s23, s30, s31, s32, s33 := mm4x4(ap, pb,
					0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
				c0 := c[i*n+j : i*n+j+4]
				c1 := c[(i+1)*n+j : (i+1)*n+j+4]
				c2 := c[(i+2)*n+j : (i+2)*n+j+4]
				c3 := c[(i+3)*n+j : (i+3)*n+j+4]
				c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
				c1[0], c1[1], c1[2], c1[3] = s10, s11, s12, s13
				c2[0], c2[1], c2[2], c2[3] = s20, s21, s22, s23
				c3[0], c3[1], c3[2], c3[3] = s30, s31, s32, s33
			}
		}
		for ; j < n; j++ {
			pb := bp[j*k : (j+1)*k]
			switch mr {
			case 2:
				s0, s1 := mm2x1(ap, pb, 0, 0)
				c[i*n+j], c[(i+1)*n+j] = s0, s1
			case 4:
				s0, s1, s2, s3 := mm4x1(ap, pb, 0, 0, 0, 0)
				c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j] = s0, s1, s2, s3
			}
		}
	}
	// Row tail: raw A rows against the same panels.
	for ; i < hi; i++ {
		ai := a[i*k : i*k+k]
		j := 0
		for ; j+4 <= n; j += 4 {
			s0, s1, s2, s3 := mm1x4(ai, bp[j*k:(j+4)*k], 0, 0, 0, 0)
			ci := c[i*n+j : i*n+j+4]
			ci[0], ci[1], ci[2], ci[3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			c[i*n+j] = mm1x1(ai, bp[j*k:(j+1)*k], 0)
		}
	}
	DefaultArena.PutSlice(ap)
}

// microTransAPanels accumulates local += Aᵀ·B for one k-chunk whose two
// operands have been packed into kk-row panels (A: m columns in mr-wide
// panels; B: n columns in 4-wide panels). Accumulators start from the
// current local values, so the element-wise result is bit-identical to the
// reference axpy accumulation over the same p range.
func microTransAPanels(local, ap, bp []float64, kk, m, n, mr int) {
	i := 0
	for ; i+mr <= m; i += mr {
		pa := ap[i*kk : (i+mr)*kk]
		j := 0
		for ; j+4 <= n; j += 4 {
			pb := bp[j*kk : (j+4)*kk]
			switch mr {
			case 2:
				l0 := local[i*n+j : i*n+j+4]
				l1 := local[(i+1)*n+j : (i+1)*n+j+4]
				s00, s01, s02, s03, s10, s11, s12, s13 := mm2x4(pa, pb,
					l0[0], l0[1], l0[2], l0[3], l1[0], l1[1], l1[2], l1[3])
				l0[0], l0[1], l0[2], l0[3] = s00, s01, s02, s03
				l1[0], l1[1], l1[2], l1[3] = s10, s11, s12, s13
			case 4:
				if hasSSETile {
					mm4x4tile(&pa[0], &pb[0], kk, &local[i*n+j], n, 1)
					continue
				}
				l0 := local[i*n+j : i*n+j+4]
				l1 := local[(i+1)*n+j : (i+1)*n+j+4]
				l2 := local[(i+2)*n+j : (i+2)*n+j+4]
				l3 := local[(i+3)*n+j : (i+3)*n+j+4]
				s00, s01, s02, s03, s10, s11, s12, s13,
					s20, s21, s22, s23, s30, s31, s32, s33 := mm4x4(pa, pb,
					l0[0], l0[1], l0[2], l0[3], l1[0], l1[1], l1[2], l1[3],
					l2[0], l2[1], l2[2], l2[3], l3[0], l3[1], l3[2], l3[3])
				l0[0], l0[1], l0[2], l0[3] = s00, s01, s02, s03
				l1[0], l1[1], l1[2], l1[3] = s10, s11, s12, s13
				l2[0], l2[1], l2[2], l2[3] = s20, s21, s22, s23
				l3[0], l3[1], l3[2], l3[3] = s30, s31, s32, s33
			}
		}
		for ; j < n; j++ {
			pb := bp[j*kk : (j+1)*kk]
			switch mr {
			case 2:
				s0, s1 := mm2x1(pa, pb, local[i*n+j], local[(i+1)*n+j])
				local[i*n+j], local[(i+1)*n+j] = s0, s1
			case 4:
				s0, s1, s2, s3 := mm4x1(pa, pb,
					local[i*n+j], local[(i+1)*n+j], local[(i+2)*n+j], local[(i+3)*n+j])
				local[i*n+j], local[(i+1)*n+j], local[(i+2)*n+j], local[(i+3)*n+j] = s0, s1, s2, s3
			}
		}
	}
	// Column tail of A: 1-wide panels.
	for ; i < m; i++ {
		pa := ap[i*kk : (i+1)*kk]
		j := 0
		for ; j+4 <= n; j += 4 {
			li := local[i*n+j : i*n+j+4]
			s0, s1, s2, s3 := mm1x4(pa, bp[j*kk:(j+4)*kk], li[0], li[1], li[2], li[3])
			li[0], li[1], li[2], li[3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			local[i*n+j] = mm1x1(pa, bp[j*kk:(j+1)*kk], local[i*n+j])
		}
	}
}
