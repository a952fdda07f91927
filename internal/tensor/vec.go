package tensor

import "math"

// The reduction primitives are 4-lane unrolled in the same len-driven,
// bounds-check-free style as the MatMul micro-kernels: four independent
// accumulator chains hide the 4-cycle ADDSD latency, then combine in the
// fixed order (s0+s1)+(s2+s3) before the scalar tail, so results are
// deterministic (identical on every host and run) even though they round
// differently from the PR-1 single-chain loops. Mean and Variance instead
// use compensated (Kahan) summation: GM statistics feed the regularizer's
// adaptive penalty, and on million-element vectors a naive running sum
// loses enough low-order mass to drift the penalty (see
// TestMeanVarianceCompensated).

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a = a[4:]
		b = b[4:]
	}
	s := (s0 + s1) + (s2 + s3)
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes dst[i] += alpha * x[i] for all i. The unroll is element-wise
// independent, so it is bit-identical to the plain loop.
func Axpy(alpha float64, x, dst []float64) {
	for len(x) >= 4 && len(dst) >= 4 {
		dst[0] += alpha * x[0]
		dst[1] += alpha * x[1]
		dst[2] += alpha * x[2]
		dst[3] += alpha * x[3]
		x = x[4:]
		dst = dst[4:]
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for len(x) >= 4 {
		x[0] *= alpha
		x[1] *= alpha
		x[2] *= alpha
		x[3] *= alpha
		x = x[4:]
	}
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 {
		s0 += x[0] * x[0]
		s1 += x[1] * x[1]
		s2 += x[2] * x[2]
		s3 += x[3] * x[3]
		x = x[4:]
	}
	s := (s0 + s1) + (s2 + s3)
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Norm1 returns the L1 norm of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// kahanSum returns the compensated sum of x: a running Neumaier-style
// correction term recaptures the low-order bits an update would otherwise
// shave off, keeping the error O(1) ulp instead of O(n).
func kahanSum(x []float64) float64 {
	var s, comp float64
	for _, v := range x {
		y := v - comp
		t := s + y
		comp = (t - s) - y
		s = t
	}
	return s
}

// Mean returns the arithmetic mean of x via compensated summation; it
// returns 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return kahanSum(x) / float64(len(x))
}

// Variance returns the population variance of x (two-pass, compensated in
// both passes); it returns 0 for fewer than two elements.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s, comp float64
	for _, v := range x {
		d := v - m
		y := d*d - comp
		t := s + y
		comp = (t - s) - y
		s = t
	}
	return s / float64(len(x))
}

// AllFinite reports whether no element of xs is NaN or ±Inf.
func AllFinite(xs ...float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ArgMax returns the index of the largest element of x (first on ties).
// It returns -1 for empty input.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}
