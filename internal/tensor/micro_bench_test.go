package tensor

import (
	"fmt"
	"testing"
)

// Benchmarks comparing the register-blocked tile shapes against the PR-1
// reference kernels on the hotpath harness shapes. Run with
//
//	go test ./internal/tensor/ -run=NONE -bench=Micro -benchtime=200ms
//
// to see how each supported tile does on this host.

func benchTiles(b *testing.B, run func(b *testing.B, mr, nr int)) {
	pm, pn := TileShape()
	defer func() { tileShape.Store(int64(pm)<<8 | int64(pn)) }()
	for _, t := range [][2]int{{0, 0}, {2, 4}, {4, 4}} {
		name := fmt.Sprintf("tile=%dx%d", t[0], t[1])
		if t[0] == 0 {
			name = "tile=ref"
		}
		b.Run(name, func(b *testing.B) {
			tileShape.Store(int64(t[0])<<8 | int64(t[1]))
			run(b, t[0], t[1])
		})
	}
}

func benchMicroMatMul(b *testing.B, m, k, n int) {
	rng := NewRNG(11)
	a, bb := New(m, k), New(k, n)
	dst := New(m, n)
	rng.FillNormal(a.Data, 0, 1)
	rng.FillNormal(bb.Data, 0, 1)
	benchTiles(b, func(b *testing.B, _, _ int) {
		MatMulInto(dst, a, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulInto(dst, a, bb)
		}
	})
}

func BenchmarkMicroMatMul128(b *testing.B) { benchMicroMatMul(b, 128, 128, 128) }

func BenchmarkMicroMatMulConv(b *testing.B) { benchMicroMatMul(b, 256, 800, 32) }

func BenchmarkMicroTransBConv(b *testing.B) {
	rng := NewRNG(12)
	a, bb := New(256, 800), New(32, 800)
	dst := New(256, 32)
	rng.FillNormal(a.Data, 0, 1)
	rng.FillNormal(bb.Data, 0, 1)
	benchTiles(b, func(b *testing.B, _, _ int) {
		MatMulTransBInto(dst, a, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulTransBInto(dst, a, bb)
		}
	})
}

func BenchmarkMicroTransAConv(b *testing.B) {
	rng := NewRNG(13)
	a, bb := New(256, 32), New(256, 800)
	dst := New(32, 800)
	rng.FillNormal(a.Data, 0, 1)
	rng.FillNormal(bb.Data, 0, 1)
	benchTiles(b, func(b *testing.B, _, _ int) {
		MatMulTransAInto(dst, a, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulTransAInto(dst, a, bb)
		}
	})
}
