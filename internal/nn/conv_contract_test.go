package nn

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// The Conv2D contract: whatever lowering and kernels Conv2D uses, every
// output and gradient element must carry the addition chain of the plain
// per-image im2col formulation below, so its float bits — and everything
// trained on them — never move. The reference spells that chain out one
// element at a time:
//
//   - forward: out[i][oc][p] = (Σ_k col_i[p][k]·W[k][oc], k ascending from
//     +0) + b[oc], padding taps included as 0·W terms;
//   - bias and weight gradients: per image, Σ over pixels p ascending from
//     +0, added to the running gradient image by image in batch order;
//   - input gradient: dCol_i[p][k] = Σ_oc dOut_i[p][oc]·W[k][oc] (oc
//     ascending from +0), scattered into dx with each element's terms in
//     (oy, ox) ascending order.

// convRef holds the reference results of one forward and two accumulated
// backward passes.
type convRef struct {
	out, dx, wGrad, bGrad []float64
}

func refCol(img []float64, g tensor.ConvGeom, p, k int) float64 {
	outW := g.OutW()
	oy, ox := p/outW, p%outW
	c, r := k/(g.KH*g.KW), k%(g.KH*g.KW)
	ky, kx := r/g.KW, r%g.KW
	iy, ix := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
	if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
		return 0
	}
	return img[(c*g.InH+iy)*g.InW+ix]
}

func refConv(x, w, bias, grad []float64, n int, g tensor.ConvGeom, outC int, backwards int) convRef {
	inFeat := g.InC * g.InH * g.InW
	hw, kk := g.ColRows(), g.ColCols()
	outFeat := outC * hw
	ref := convRef{
		out:   make([]float64, n*outFeat),
		dx:    make([]float64, n*inFeat),
		wGrad: make([]float64, kk*outC),
		bGrad: make([]float64, outC),
	}
	for i := 0; i < n; i++ {
		img := x[i*inFeat : (i+1)*inFeat]
		for oc := 0; oc < outC; oc++ {
			for p := 0; p < hw; p++ {
				s := 0.0
				for k := 0; k < kk; k++ {
					s += float64(refCol(img, g, p, k) * w[k*outC+oc])
				}
				ref.out[i*outFeat+oc*hw+p] = s + bias[oc]
			}
		}
	}
	dCol := make([]float64, hw*kk)
	for b := 0; b < backwards; b++ {
		clear(ref.dx)
		for i := 0; i < n; i++ {
			img := x[i*inFeat : (i+1)*inFeat]
			gi := grad[i*outFeat : (i+1)*outFeat]
			for oc := 0; oc < outC; oc++ {
				s := 0.0
				for p := 0; p < hw; p++ {
					s += gi[oc*hw+p]
				}
				ref.bGrad[oc] += s
			}
			for k := 0; k < kk; k++ {
				for oc := 0; oc < outC; oc++ {
					s := 0.0
					for p := 0; p < hw; p++ {
						s += float64(refCol(img, g, p, k) * gi[oc*hw+p])
					}
					ref.wGrad[k*outC+oc] += s
				}
			}
			for p := 0; p < hw; p++ {
				for k := 0; k < kk; k++ {
					s := 0.0
					for oc := 0; oc < outC; oc++ {
						s += float64(gi[oc*hw+p] * w[k*outC+oc])
					}
					dCol[p*kk+k] = s
				}
			}
			// Scatter with pixels outermost: each dx element sees its terms
			// in ascending (oy, ox).
			dxi := ref.dx[i*inFeat : (i+1)*inFeat]
			outW := g.OutW()
			for p := 0; p < hw; p++ {
				oy, ox := p/outW, p%outW
				for k := 0; k < kk; k++ {
					c, r := k/(g.KH*g.KW), k%(g.KH*g.KW)
					iy, ix := oy*g.Stride-g.Pad+r/g.KW, ox*g.Stride-g.Pad+r%g.KW
					if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
						continue
					}
					dxi[(c*g.InH+iy)*g.InW+ix] += dCol[p*kk+k]
				}
			}
		}
	}
	return ref
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestConv2DMatchesPerImageReferenceBitForBit(t *testing.T) {
	type geomCase struct {
		inC, in, k, stride, pad, outC int
	}
	geoms := []geomCase{
		{3, 8, 3, 1, 1, 6},   // CIFAR-quick stem: one image per chunk
		{6, 8, 3, 2, 1, 12},  // stride-2 entry, 4x4 out: several images per chunk
		{12, 4, 3, 2, 1, 24}, // 2x2 out: many images per chunk
		{6, 8, 1, 2, 0, 12},  // 1x1 projection shortcut
		{2, 5, 3, 1, 0, 5},   // no padding, odd sizes
		{4, 3, 1, 1, 0, 3},   // 1x1, stride 1, fewer than four output channels
		{3, 12, 3, 1, 1, 8},  // ImageNet-quick stem: 144 pixels
		{16, 6, 3, 2, 1, 32}, // 3x3 out: odd pixel count per chunk
		{2, 16, 3, 2, 1, 4},  // 8x8 out from a stride-2 conv: row-by-row lowering
	}
	batches := []int{1, 7, 20, 150}
	for _, gc := range geoms {
		g := tensor.ConvGeom{InC: gc.inC, InH: gc.in, InW: gc.in, KH: gc.k, KW: gc.k, Stride: gc.stride, Pad: gc.pad}
		for _, n := range batches {
			if n == 150 && gc.in*gc.in*gc.inC > 200 {
				continue // the reference is slow; 150 runs on the small maps
			}
			t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d_p%d_o%d_n%d", gc.inC, gc.in, gc.in, gc.k, gc.stride, gc.pad, gc.outC, n), func(t *testing.T) {
				r := rng.New(uint64(97 + n + gc.inC*gc.outC))
				conv := NewConv2D("c", g, gc.outC, r)
				r.FillNormal(conv.B.Value.Data, 0.5)
				x := tensor.New(n, g.InC*g.InH*g.InW)
				r.FillNormal(x.Data, 1)
				for i := range x.Data { // post-ReLU-like: exact zeros in the chains
					if x.Data[i] < -0.5 {
						x.Data[i] = 0
					}
				}
				grad := tensor.New(n, conv.OutFeatures())
				r.FillNormal(grad.Data, 0.1)

				ref := refConv(x.Data, conv.W.Value.Data, conv.B.Value.Data, grad.Data, n, g, gc.outC, 2)
				out := conv.Forward(x, true)
				bitsEqual(t, "forward", out.Data, ref.out)
				conv.Backward(grad)
				dx := conv.Backward(grad)
				bitsEqual(t, "dx", dx.Data, ref.dx)
				bitsEqual(t, "W.Grad", conv.W.Grad.Data, ref.wGrad)
				bitsEqual(t, "B.Grad", conv.B.Grad.Data, ref.bGrad)
			})
		}
	}
}
