package tensor

import (
	"fmt"
	"testing"

	"lcasgd/internal/rng"
)

// Kernel benchmarks over the shapes the paper's networks actually emit.
// Conv layers lower to [OutH*OutW, InC*KH*KW] @ [InC*KH*KW, OutC] per
// image; the MLP head and LSTM predictors emit [batch, in] @ [in, out].
// Each shape also runs with A at ~50% exact zeros — the sparsity profile of
// post-ReLU activations — which is how the pre-tiling kernels' data-
// dependent `if av == 0` skip was adjudicated:
//
// Measured on this box (Xeon 2.10GHz, go1.24, 300ms x 5 runs), the skip
// variant of matMulTransA ran conv_stem at ~103µs dense / ~130µs sparse,
// the no-skip variant at ~82µs for both. The unpredictable branch on
// scattered zeros cost 25-35%, and even the always-false compare on dense
// data cost ~20% in the tight inner loop — so the skip was dropped from
// every tiled kernel and their timing is now input-independent. The _relu
// variants below stay as the regression guard for that property: sparse
// and dense medians of the same shape should track within noise.

type mmShape struct {
	name    string
	m, k, n int
}

var benchShapes = []mmShape{
	{"mlp_50x144x96", 50, 144, 96},         // MLP hidden layer, full batch
	{"conv_stem_144x108x12", 144, 108, 12}, // ResNetLite50 stem, 12x12 input
	{"conv_mid_36x216x24", 36, 216, 24},    // stage-2 3x3 conv
	{"conv_deep_9x432x48", 9, 432, 48},     // stage-3 3x3 conv
	{"square_128", 128, 128, 128},          // generic mid-size
	{"packed_64x300x130", 64, 300, 130},    // exercises the packed-panel path
}

func benchMats(m, k, n int, sparse bool) (*Tensor, *Tensor) {
	g := rng.New(7)
	a := randMat(g, m, k)
	b := randMat(g, k, n)
	if sparse {
		sparsify(a, g)
	}
	return a, b
}

func BenchmarkMatMul(b *testing.B) {
	for _, s := range benchShapes {
		for _, sparse := range []bool{false, true} {
			name := s.name
			if sparse {
				name += "_relu"
			}
			b.Run(name, func(b *testing.B) {
				x, y := benchMats(s.m, s.k, s.n, sparse)
				dst := New(s.m, s.n)
				b.SetBytes(int64(8 * s.m * s.k * s.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, x, y)
				}
			})
		}
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	// Weight gradient: colᵀ [ColCols, HW] @ dOut [HW, OutC]; A here is the
	// im2col matrix, the post-ReLU-sparse operand.
	for _, s := range []mmShape{
		{"conv_stem", 144, 108, 12},
		{"conv_mid", 36, 216, 24},
		{"conv_deep", 9, 432, 48},
	} {
		for _, sparse := range []bool{false, true} {
			name := s.name
			if sparse {
				name += "_relu"
			}
			b.Run(name, func(b *testing.B) {
				g := rng.New(7)
				a := randMat(g, s.m, s.k) // [HW, ColCols] = aᵀ input
				if sparse {
					sparsify(a, g)
				}
				y := randMat(g, s.m, s.n)
				dst := New(s.k, s.n)
				b.SetBytes(int64(8 * s.m * s.k * s.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulTransAInto(dst, a, y)
				}
			})
		}
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	// Input gradient: dOut [HW, OutC] @ Wᵀ, W being [ColCols, OutC].
	for _, s := range []mmShape{
		{"conv_stem", 144, 12, 108},
		{"conv_mid", 36, 24, 216},
		{"conv_deep", 9, 48, 432},
	} {
		b.Run(s.name, func(b *testing.B) {
			g := rng.New(7)
			a := randMat(g, s.m, s.k)
			y := randMat(g, s.n, s.k)
			dst := New(s.m, s.n)
			b.SetBytes(int64(8 * s.m * s.k * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransBInto(dst, a, y)
			}
		})
	}
}

func BenchmarkIm2Col(b *testing.B) {
	for _, g := range []ConvGeom{
		{InC: 12, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 24, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},
	} {
		b.Run(fmt.Sprintf("c%dx%d", g.InC, g.InH), func(b *testing.B) {
			r := rng.New(7)
			img := make([]float64, g.InC*g.InH*g.InW)
			r.FillNormal(img, 1)
			dst := make([]float64, g.ColRows()*g.ColCols())
			b.SetBytes(int64(8 * len(dst)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Im2Col(dst, img, g)
			}
		})
	}
}

func BenchmarkCol2Im(b *testing.B) {
	g := ConvGeom{InC: 12, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	r := rng.New(7)
	col := make([]float64, g.ColRows()*g.ColCols())
	r.FillNormal(col, 1)
	dst := make([]float64, g.InC*g.InH*g.InW)
	b.SetBytes(int64(8 * len(col)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Col2Im(dst, col, g)
	}
}

// chunkBenchGeoms are the conv layers of the quick profiles whose chunk
// lowering differs most: full-map stems (one image per chunk) and the
// deepest stages (many images per chunk).
var chunkBenchGeoms = []struct {
	name string
	g    ConvGeom
	outC int
}{
	{"cifarq_stem_8x8", ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 6},
	{"cifarq_s2c2_2x2", ConvGeom{InC: 24, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}, 24},
	{"imagenetq_s0_12x12", ConvGeom{InC: 8, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8},
	{"imagenetq_s2c2_3x3", ConvGeom{InC: 32, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32},
}

// BenchmarkIm2ColChunk and BenchmarkCol2ImChunk time one chunk's lowering
// and its adjoint; bytes are the lowered matrix's.
func BenchmarkIm2ColChunk(b *testing.B) {
	for _, s := range chunkBenchGeoms {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(7)
			nb := s.g.ChunkImages()
			imgs := make([]float64, nb*s.g.InC*s.g.InH*s.g.InW)
			r.FillNormal(imgs, 1)
			dst := make([]float64, s.g.ColCols()*nb*s.g.ColRows())
			b.SetBytes(int64(8 * len(dst)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Im2ColChunk(dst, imgs, s.g)
			}
		})
	}
}

func BenchmarkCol2ImChunk(b *testing.B) {
	for _, s := range chunkBenchGeoms {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(7)
			nb := s.g.ChunkImages()
			col := make([]float64, s.g.ColCols()*nb*s.g.ColRows())
			r.FillNormal(col, 1)
			dst := make([]float64, nb*s.g.InC*s.g.InH*s.g.InW)
			b.SetBytes(int64(8 * len(col)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Col2ImChunk(dst, col, s.g)
			}
		})
	}
}

// BenchmarkGemmChunk times the three products of one conv chunk — forward
// [OutC, K]·[K, cols] with W read transposed, input gradient
// [K, OutC]·[OutC, cols], and one image's weight gradient
// [K, hw]·[hw, OutC] — on the dispatched kernel and on the pure-Go one.
// Bytes are multiply-adds × 8, as in BenchmarkMatMul.
func BenchmarkGemmChunk(b *testing.B) {
	for _, s := range chunkBenchGeoms {
		hw, kk, oc := s.g.ColRows(), s.g.ColCols(), s.outC
		cols := s.g.ChunkImages() * hw
		r := rng.New(7)
		w := make([]float64, kk*oc)
		col := make([]float64, kk*cols)
		prod := make([]float64, oc*cols)
		dW := make([]float64, kk*oc)
		r.FillNormal(w, 1)
		r.FillNormal(col, 1)
		r.FillNormal(prod, 1)
		for _, kern := range []struct {
			name string
			f    func(m, n, k int, a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int)
		}{{"dispatch", Gemm}, {"generic", gemmGeneric}} {
			for _, p := range []struct {
				name string
				run  func()
				macs int
			}{
				{"fwd", func() { kern.f(oc, cols, kk, w, 1, oc, col, cols, prod, cols) }, oc * cols * kk},
				{"dx", func() { kern.f(kk, cols, oc, w, oc, 1, prod, cols, col, cols) }, kk * cols * oc},
				{"dw", func() { kern.f(kk, oc, hw, col, cols, 1, prod, oc, dW, oc) }, kk * oc * hw},
			} {
				b.Run(s.name+"/"+p.name+"/"+kern.name, func(b *testing.B) {
					b.SetBytes(int64(8 * p.macs))
					for i := 0; i < b.N; i++ {
						p.run()
					}
				})
			}
		}
	}
}
