package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"lcasgd/internal/rng"
)

func TestConvGeomDerived(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if g.OutH() != 8 || g.OutW() != 8 {
		t.Fatalf("same-padding 3x3: out %dx%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}
	if g2.OutH() != 4 || g2.OutW() != 4 {
		t.Fatalf("stride-2: out %dx%d", g2.OutH(), g2.OutW())
	}
	if g.ColRows() != 64 || g.ColCols() != 27 {
		t.Fatalf("col dims %dx%d", g.ColRows(), g.ColCols())
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

// naiveConv performs direct convolution of one image with one filter for
// cross-checking the im2col path.
func naiveConv(img []float64, w []float64, g ConvGeom) []float64 {
	outH, outW := g.OutH(), g.OutW()
	out := make([]float64, outH*outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			s := 0.0
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					for kx := 0; kx < g.KW; kx++ {
						iy := oy*g.Stride - g.Pad + ky
						ix := ox*g.Stride - g.Pad + kx
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							continue
						}
						s += img[c*g.InH*g.InW+iy*g.InW+ix] * w[c*g.KH*g.KW+ky*g.KW+kx]
					}
				}
			}
			out[oy*outW+ox] = s
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 4, InH: 5, InW: 5, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 0},
	}
	for gi, g := range geoms {
		r := rng.New(uint64(gi) + 100)
		img := make([]float64, g.InC*g.InH*g.InW)
		w := make([]float64, g.ColCols())
		r.FillNormal(img, 1)
		r.FillNormal(w, 1)
		col := make([]float64, g.ColRows()*g.ColCols())
		Im2Col(col, img, g)
		// conv = col @ w  (treat w as a single output filter)
		colT := FromSlice(col, g.ColRows(), g.ColCols())
		wT := FromSlice(w, g.ColCols(), 1)
		got := MatMul(colT, wT)
		want := naiveConv(img, w, g)
		for i := range want {
			if math.Abs(got.Data[i]-want[i]) > 1e-10 {
				t.Fatalf("geom %d: im2col conv mismatch at %d: %v vs %v", gi, i, got.Data[i], want[i])
			}
		}
	}
}

// TestCol2ImIsAdjoint checks <Im2Col(x), y> == <x, Col2Im(y)> — the defining
// property of an adjoint pair, which is exactly what backprop requires.
func TestCol2ImIsAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		g := ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
		r := rng.New(seed)
		x := make([]float64, g.InC*g.InH*g.InW)
		y := make([]float64, g.ColRows()*g.ColCols())
		r.FillNormal(x, 1)
		r.FillNormal(y, 1)

		colX := make([]float64, len(y))
		Im2Col(colX, x, g)
		lhs := 0.0
		for i := range y {
			lhs += colX[i] * y[i]
		}

		imY := make([]float64, len(x))
		Col2Im(imY, y, g)
		rhs := 0.0
		for i := range x {
			rhs += x[i] * imY[i]
		}
		return math.Abs(lhs-rhs) < 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	col := make([]float64, g.ColRows()*g.ColCols())
	for i := range col {
		col[i] = 1
	}
	dst := make([]float64, 16)
	dst[0] = 5 // pre-existing content must be preserved (accumulation)
	Col2Im(dst, col, g)
	if dst[0] <= 5 {
		t.Fatalf("Col2Im must accumulate, got dst[0]=%v", dst[0])
	}
	// Center pixel participates in all 9 kernel positions; corner in 4.
	center := dst[1*4+1]
	if center != 9 {
		t.Fatalf("center accumulation = %v, want 9", center)
	}
}

func TestIm2ColPanicsOnBadSizes(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Im2Col(make([]float64, 3), make([]float64, 16), g)
}

// chunkGeoms covers stride 1/2/4, pad 0/1/2, 1x1/3x3/5x5 kernels, maps
// small enough that a chunk holds several images, and every lowering path:
// gather (maps under 64 pixels), shifted copy (stride-1 same-size maps of
// 64 pixels or more) and row by row (the rest, including a small map whose
// input plane is too large for the gather scratch).
var chunkGeoms = []ConvGeom{
	{InC: 2, InH: 20, InW: 20, KH: 3, KW: 3, Stride: 2, Pad: 1},
	{InC: 2, InH: 10, InW: 10, KH: 3, KW: 3, Stride: 1, Pad: 0},
	{InC: 1, InH: 9, InW: 9, KH: 5, KW: 5, Stride: 1, Pad: 2},
	{InC: 1, InH: 20, InW: 20, KH: 5, KW: 5, Stride: 4, Pad: 2},
	{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 2, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
	{InC: 4, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 2, Pad: 1},
	{InC: 3, InH: 6, InW: 6, KH: 1, KW: 1, Stride: 2, Pad: 0},
	{InC: 2, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 0},
	{InC: 1, InH: 1, InW: 1, KH: 5, KW: 5, Stride: 1, Pad: 2},
	{InC: 2, InH: 3, InW: 3, KH: 5, KW: 5, Stride: 2, Pad: 2},
}

// TestIm2ColChunkIsTransposedIm2Col checks the chunk lowering against the
// per-image Im2Col: column (image i, pixel p) of row k must equal
// Im2Col(image i)[p][k], padding zeros included.
func TestIm2ColChunkIsTransposedIm2Col(t *testing.T) {
	g := rng.New(31)
	for _, geom := range chunkGeoms {
		inFeat := geom.InC * geom.InH * geom.InW
		hw, kk := geom.ColRows(), geom.ColCols()
		for _, nb := range []int{1, 3, geom.ChunkImages()} {
			imgs := make([]float64, nb*inFeat)
			g.FillNormal(imgs, 1)
			cols := nb * hw
			dst := make([]float64, kk*cols)
			for i := range dst {
				dst[i] = math.NaN() // every element must be written
			}
			Im2ColChunk(dst, imgs, geom)
			one := make([]float64, hw*kk)
			for i := 0; i < nb; i++ {
				Im2Col(one, imgs[i*inFeat:(i+1)*inFeat], geom)
				for p := 0; p < hw; p++ {
					for k := 0; k < kk; k++ {
						got, want := dst[k*cols+i*hw+p], one[p*kk+k]
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%+v nb=%d: row %d col %d = %v, want %v", geom, nb, k, i*hw+p, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCol2ImChunkMatchesCol2ImBitForBit scatters the same column gradient
// through Col2ImChunk and, transposed, through the per-image Col2Im into
// the same non-zero starting gradient. The sums must round identically:
// Col2ImChunk visits taps in descending (ky, kx), which is Col2Im's
// ascending (oy, ox).
func TestCol2ImChunkMatchesCol2ImBitForBit(t *testing.T) {
	g := rng.New(32)
	for _, geom := range chunkGeoms {
		inFeat := geom.InC * geom.InH * geom.InW
		hw, kk := geom.ColRows(), geom.ColCols()
		for _, nb := range []int{1, 3, geom.ChunkImages()} {
			cols := nb * hw
			col := make([]float64, kk*cols)
			g.FillNormal(col, 1)
			got := make([]float64, nb*inFeat)
			g.FillNormal(got, 1e-3)
			want := append([]float64(nil), got...)
			Col2ImChunk(got, col, geom)
			one := make([]float64, hw*kk)
			for i := 0; i < nb; i++ {
				for p := 0; p < hw; p++ {
					for k := 0; k < kk; k++ {
						one[p*kk+k] = col[k*cols+i*hw+p]
					}
				}
				Col2Im(want[i*inFeat:(i+1)*inFeat], one, geom)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%+v nb=%d: dx[%d] = %v, want %v", geom, nb, i, got[i], want[i])
				}
			}
		}
	}
}

func TestChunkImages(t *testing.T) {
	for _, tc := range []struct {
		in, stride, want int
	}{
		{8, 1, 1},  // 64 pixels
		{8, 2, 2},  // 16 pixels
		{4, 2, 8},  // 4 pixels
		{12, 1, 1}, // 144 pixels
		{12, 2, 1}, // 36 pixels
		{6, 2, 4},  // 9 pixels
	} {
		g := ConvGeom{InC: 1, InH: tc.in, InW: tc.in, KH: 3, KW: 3, Stride: tc.stride, Pad: 1}
		if got := g.ChunkImages(); got != tc.want {
			t.Errorf("%dx%d stride %d: ChunkImages %d, want %d", tc.in, tc.in, tc.stride, got, tc.want)
		}
	}
}
