package nn

import (
	"fmt"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Conv2D is a 2-D convolution lowered to matrix products. Input rows are
// channel-major (C, H, W) flattened images; output rows are
// (OutC, OutH, OutW) flattened.
//
// The batch is processed in chunks of Geom.ChunkImages() images. A chunk is
// lowered into one channel-major column matrix [ColCols, b·OutH·OutW]
// (tensor.Im2ColChunk) and multiplied by the filters in one tensor.Gemm,
// so the long pixel dimension is the kernels' inner loop. Every output and
// gradient element keeps the addition chain of the per-image lowering
// (see DESIGN.md "Kernel layer").
type Conv2D struct {
	Geom tensor.ConvGeom
	OutC int
	W    *Param // [InC*KH*KW, OutC]
	B    *Param // [OutC]

	x *tensor.Tensor // cached input

	// Batch-independent scratch sized for one chunk, allocated at
	// construction. col holds the lowered input on both passes and the
	// column gradient in between; prod holds the forward product, then on
	// the backward pass the output gradient as [OutC, cols] and, transposed,
	// as [cols, OutC]. out/dx are per-batch-shape (see reuseFor).
	col     []float64 // [ColCols, chunk*ColRows]
	prod    []float64 // [OutC, chunk*ColRows]
	out, dx *tensor.Tensor
}

// NewConv2D constructs a convolution layer with He initialization. It
// panics on invalid geometry — layer construction is programmer error
// territory, not runtime input.
func NewConv2D(name string, g tensor.ConvGeom, outC int, r *rng.RNG) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	c := &Conv2D{
		Geom: g,
		OutC: outC,
		W:    NewParam(name+".W", g.ColCols(), outC),
		B:    NewParam(name+".b", outC),
	}
	c.W.InitHe(r, g.ColCols())
	cols := g.ChunkImages() * g.ColRows()
	c.col = make([]float64, g.ColCols()*cols)
	c.prod = make([]float64, outC*cols)
	return c
}

// Forward convolves the batch chunk by chunk: lower, one [OutC, cols]
// product, then scatter each image's pixels back to channel-major rows
// with the bias added.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	inFeat := g.InC * g.InH * g.InW
	if x.Rank() != 2 || x.Shape[1] != inFeat {
		panic(fmt.Sprintf("nn: Conv2D %s expects [N,%d], got %v", c.W.Name, inFeat, x.Shape))
	}
	c.x = x
	n := x.Shape[0]
	hw, kk := g.ColRows(), g.ColCols()
	outFeat := c.OutC * hw
	out := reuse2(&c.out, n, outFeat)
	bias := c.B.Value.Data
	for i0, chunk := 0, g.ChunkImages(); i0 < n; i0 += chunk {
		nb := min(chunk, n-i0)
		cols := nb * hw
		col, prod := c.col[:kk*cols], c.prod[:c.OutC*cols]
		tensor.Im2ColChunk(col, x.Data[i0*inFeat:(i0+nb)*inFeat], g)
		// prod[oc][j] = Σ_k W[k][oc]·col[k][j]: W read transposed.
		tensor.Gemm(c.OutC, cols, kk, c.W.Value.Data, 1, c.OutC, col, cols, prod, cols)
		for i := 0; i < nb; i++ { // image i's maps: prod rows, columns i*hw onward
			tensor.AddBias(out.Data[(i0+i)*outFeat:(i0+i+1)*outFeat], hw, prod[i*hw:], cols, hw, bias)
		}
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input
// gradient. Per chunk: the input gradient is one W·dOut product scattered
// by col2im; the weight and bias gradients are summed per image from +0
// and added to W.Grad/B.Grad image by image, in batch order.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n := c.x.Shape[0]
	inFeat := g.InC * g.InH * g.InW
	hw, kk := g.ColRows(), g.ColCols()
	outFeat := c.OutC * hw
	dx := reuse2(&c.dx, n, inFeat)
	dx.Zero() // Col2ImChunk accumulates into the image gradient
	for i0, chunk := 0, g.ChunkImages(); i0 < n; i0 += chunk {
		nb := min(chunk, n-i0)
		cols := nb * hw
		col, dOut := c.col[:kk*cols], c.prod[:c.OutC*cols]
		gchunk := grad.Data[i0*outFeat : (i0+nb)*outFeat]

		// Input gradient: gather dOut as [OutC, cols], dCol = W·dOut, col2im.
		for i := 0; i < nb; i++ {
			for oc := 0; oc < c.OutC; oc++ {
				copy(dOut[oc*cols+i*hw:oc*cols+(i+1)*hw], gchunk[i*outFeat+oc*hw:i*outFeat+(oc+1)*hw])
			}
		}
		tensor.Gemm(kk, cols, c.OutC, c.W.Value.Data, c.OutC, 1, dOut, cols, col, cols)
		tensor.Col2ImChunk(dx.Data[i0*inFeat:(i0+nb)*inFeat], col, g)

		// Weight gradient: re-lower the input, then per image
		// W.Grad += col[:, image] · dOutᵀ[image], with dOut transposed to
		// [cols, OutC] and the image's sum formed from +0 before it is
		// added. One pass per output channel both transposes and sums the
		// bias gradient in ascending pixel order.
		tensor.Im2ColChunk(col, c.x.Data[i0*inFeat:(i0+nb)*inFeat], g)
		dOutT := dOut // the same buffer, refilled as [cols, OutC]
		for i := 0; i < nb; i++ {
			gi := gchunk[i*outFeat : (i+1)*outFeat]
			ti := dOutT[i*hw*c.OutC : (i+1)*hw*c.OutC]
			for oc := 0; oc < c.OutC; oc++ {
				s := 0.0
				for p, v := range gi[oc*hw : (oc+1)*hw] {
					ti[p*c.OutC+oc] = v
					s += v
				}
				c.B.Grad.Data[oc] += s
			}
			tensor.GemmAdd(kk, c.OutC, hw, col[i*hw:], cols, 1, ti, c.OutC, c.W.Grad.Data, c.OutC)
		}
	}
	return dx
}

// Params returns the filter weights and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// OutFeatures reports OutC*OutH*OutW.
func (c *Conv2D) OutFeatures() int { return c.OutC * c.Geom.OutH() * c.Geom.OutW() }
