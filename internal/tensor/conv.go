package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution: input channels and
// spatial size, kernel size, stride, and zero padding. Output spatial size is
// derived. Square kernels and inputs are assumed (all the paper's networks
// use square 3×3/1×1 kernels on square feature maps).
type ConvGeom struct {
	InC, InH, InW int
	KH, KW        int
	Stride        int
	Pad           int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// ColRows returns the number of rows of the im2col matrix for one image.
func (g ConvGeom) ColRows() int { return g.OutH() * g.OutW() }

// ColCols returns the number of columns of the im2col matrix.
func (g ConvGeom) ColCols() int { return g.InC * g.KH * g.KW }

// Validate checks the geometry is self-consistent.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive dims: %+v", g)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("tensor: conv stride must be positive, got %d", g.Stride)
	}
	if g.Pad < 0 {
		return fmt.Errorf("tensor: conv pad must be non-negative, got %d", g.Pad)
	}
	if g.InH+2*g.Pad < g.KH || g.InW+2*g.Pad < g.KW {
		return fmt.Errorf("tensor: kernel larger than padded input: %+v", g)
	}
	return nil
}

// Im2Col lowers one image (shape [InC, InH, InW] flattened) into a matrix of
// shape [OutH*OutW, InC*KH*KW] so convolution becomes a matmul with the
// [InC*KH*KW, OutC] weight matrix. dst must have ColRows()*ColCols()
// elements.
func Im2Col(dst []float64, img []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := g.ColCols()
	if len(dst) != outH*outW*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst len %d, want %d", len(dst), outH*outW*cols))
	}
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col img len %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	// Per output pixel, the kx loop splits into prefix zeros / an in-bounds
	// contiguous copy / suffix zeros, hoisting the per-element bounds checks
	// out of the inner loop. kx0/kx1 clamp so the segment is empty (and only
	// the zero fills run) when the whole row is out of range horizontally.
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.Stride - g.Pad
			kx0 := min(max(-ix0, 0), g.KW)
			kx1 := max(min(g.InW-ix0, g.KW), kx0)
			for c := 0; c < g.InC; c++ {
				chBase := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					row := dst[idx : idx+g.KW]
					idx += g.KW
					if iy < 0 || iy >= g.InH {
						for kx := range row {
							row[kx] = 0
						}
						continue
					}
					for kx := 0; kx < kx0; kx++ {
						row[kx] = 0
					}
					rowBase := chBase + iy*g.InW + ix0
					copy(row[kx0:kx1], img[rowBase+kx0:rowBase+kx1])
					for kx := kx1; kx < g.KW; kx++ {
						row[kx] = 0
					}
				}
			}
		}
	}
}

// Col2Im scatters a column matrix's gradient back into image layout,
// accumulating overlapping patches — the adjoint of Im2Col. dst (the image
// gradient, [InC, InH, InW] flattened) is accumulated into, not zeroed.
func Col2Im(dst []float64, col []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	cols := g.ColCols()
	if len(col) != outH*outW*cols {
		panic(fmt.Sprintf("tensor: Col2Im col len %d, want %d", len(col), outH*outW*cols))
	}
	if len(dst) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst len %d, want %d", len(dst), g.InC*g.InH*g.InW))
	}
	// Same segment clipping as Im2Col: only the in-bounds [kx0, kx1) span of
	// each kernel row is accumulated; padding positions are skipped by
	// advancing idx past them.
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			ix0 := ox*g.Stride - g.Pad
			kx0 := min(max(-ix0, 0), g.KW)
			kx1 := max(min(g.InW-ix0, g.KW), kx0)
			for c := 0; c < g.InC; c++ {
				chBase := c * g.InH * g.InW
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= g.InH {
						idx += g.KW
						continue
					}
					row := col[idx+kx0 : idx+kx1]
					out := dst[chBase+iy*g.InW+ix0+kx0 : chBase+iy*g.InW+ix0+kx1]
					for kx, v := range row {
						out[kx] += v
					}
					idx += g.KW
				}
			}
		}
	}
}

// chunkCols is the column count a convolution chunk aims for: enough
// output pixels that the lowered matrix's rows are long, SIMD-friendly
// loops, and few enough that one chunk's buffers cost no more than the
// per-image buffers they replaced.
const chunkCols = 32

// ChunkImages returns how many images one lowering chunk holds:
// ⌈32 / (OutH·OutW)⌉, a function of the shape alone. A feature map of 32
// pixels or more is lowered one image at a time.
func (g ConvGeom) ChunkImages() int {
	hw := g.ColRows()
	return (chunkCols + hw - 1) / hw
}

// convRun returns the output positions [o0, o1) along one axis whose input
// coordinate o*Stride - Pad + k falls inside [0, in) for filter tap k; the
// rest read padding. It steps instead of dividing: the loops run at most
// about Pad/Stride times on either side.
func (g ConvGeom) convRun(k, in, out int) (o0, o1 int) {
	for o0 < out && o0*g.Stride-g.Pad+k < 0 {
		o0++
	}
	o1 = out
	for o1 > o0 && (o1-1)*g.Stride-g.Pad+k >= in {
		o1--
	}
	return o0, o1
}

// Im2ColChunk lowers a chunk of images (each [InC, InH, InW] flattened,
// back to back) into the channel-major column matrix
// [InC·KH·KW, b·OutH·OutW], b = len(imgs) / (InC·InH·InW): row
// (c, ky, kx) holds, for every image and output pixel (oy, ox) in order,
// the input value that filter tap multiplies, or 0 in the padding. It is
// Im2Col's matrix transposed with the images side by side, so a
// convolution over the chunk is one [OutC, ColCols] × [ColCols, b·OutH·OutW]
// product whose long dimension runs along the rows.
//
// Feature-map rows are short (2 to 12 pixels in the paper's networks), so
// the work per row segment is what costs. Maps under 64 pixels go through
// a gather table (im2colGather). On larger maps, a stride-1 convolution
// that keeps the map size (the "same" padding of every 3x3 layer) writes
// each image's share of a row as one shifted copy of the input plane:
// output pixel p reads input pixel p + (ky-Pad)·InW + (kx-Pad), and only
// the padding positions — whole rows at the top and bottom, Pad columns
// at the sides — are zeroed afterwards. Other shapes go row segment by row
// segment.
func Im2ColChunk(dst, imgs []float64, g ConvGeom) {
	inFeat := g.InC * g.InH * g.InW
	nb := len(imgs) / inFeat
	outH, outW := g.OutH(), g.OutW()
	hw := outH * outW
	cols := nb * hw
	if len(imgs) != nb*inFeat || len(dst) != g.ColCols()*cols {
		panic(fmt.Sprintf("tensor: Im2ColChunk dst len %d, imgs len %d for %+v", len(dst), len(imgs), g))
	}
	switch {
	case g.gatherFits(nb):
		im2colGather(dst, imgs, nb, g)
	case g.Stride == 1 && outH == g.InH && outW == g.InW:
		im2colShifted(dst, imgs, nb, g)
	default:
		im2colRows(dst, imgs, nb, g)
	}
}

// im2colShifted is Im2ColChunk for large stride-1 maps that keep their
// size: per tap, channel and image, one shifted copy of the input plane,
// then the padding positions zeroed. Taps are outermost so each tap's
// padding runs are found once per call.
func im2colShifted(dst, imgs []float64, nb int, g ConvGeom) {
	hw, plane, taps := g.ColRows(), g.InH*g.InW, g.KH*g.KW
	inFeat, cols, outW := g.InC*plane, nb*hw, g.InW
	for ky := 0; ky < g.KH; ky++ {
		oy0, oy1 := g.convRun(ky, g.InH, g.InH)
		for kx := 0; kx < g.KW; kx++ {
			ox0, ox1 := g.convRun(kx, g.InW, outW)
			// Output pixel p reads input pixel p+d; [lo, hi) is the span
			// whose source lies inside the plane.
			d := (ky-g.Pad)*g.InW + kx - g.Pad
			lo := min(max(oy0*outW, -d), hw)
			hi := max(min(oy1*outW, plane-d), lo)
			for c := 0; c < g.InC; c++ {
				r := c*taps + ky*g.KW + kx
				for i := 0; i < nb; i++ {
					img := dst[r*cols+i*hw : r*cols+(i+1)*hw]
					for p := 0; p < lo; p++ {
						img[p] = 0
					}
					if lo < hi {
						ch := imgs[i*inFeat+c*plane : i*inFeat+(c+1)*plane]
						copy(img[lo:hi], ch[lo+d:hi+d])
					}
					for p := hi; p < hw; p++ {
						img[p] = 0
					}
					if ox0 == 0 && ox1 == outW {
						continue
					}
					// The side columns read across a row boundary.
					for oy := oy0; oy < oy1; oy++ {
						for ox := 0; ox < ox0; ox++ {
							img[oy*outW+ox] = 0
						}
						for ox := ox1; ox < outW; ox++ {
							img[oy*outW+ox] = 0
						}
					}
				}
			}
		}
	}
}

// im2colRows is Im2ColChunk for any geometry: row segment by row segment,
// each split into padding, in-image span and padding.
func im2colRows(dst, imgs []float64, nb int, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	hw, plane, taps := outH*outW, g.InH*g.InW, g.KH*g.KW
	inFeat, cols, s := g.InC*plane, nb*hw, g.Stride
	for ky := 0; ky < g.KH; ky++ {
		oy0, oy1 := g.convRun(ky, g.InH, outH)
		for kx := 0; kx < g.KW; kx++ {
			ox0, ox1 := g.convRun(kx, g.InW, outW)
			for c := 0; c < g.InC; c++ {
				r := c*taps + ky*g.KW + kx
				for i := 0; i < nb; i++ {
					img := dst[r*cols+i*hw : r*cols+(i+1)*hw]
					ch := imgs[i*inFeat+c*plane : i*inFeat+(c+1)*plane]
					for p := 0; p < oy0*outW; p++ {
						img[p] = 0
					}
					for oy := oy0; oy < oy1; oy++ {
						seg := img[oy*outW : (oy+1)*outW]
						src := ch[(oy*s-g.Pad+ky)*g.InW:]
						for ox := 0; ox < ox0; ox++ {
							seg[ox] = 0
						}
						for ox := ox0; ox < ox1; ox++ {
							seg[ox] = src[ox*s-g.Pad+kx]
						}
						for ox := ox1; ox < outW; ox++ {
							seg[ox] = 0
						}
					}
					for p := oy1 * outW; p < hw; p++ {
						img[p] = 0
					}
				}
			}
		}
	}
}

// Col2ImChunk is the adjoint of Im2ColChunk: it scatters a
// [InC·KH·KW, b·OutH·OutW] column gradient back into the b image gradients
// in dst, accumulating into dst (it does not zero it).
//
// Each image-gradient element receives its terms in Col2Im's order,
// (oy, ox) ascending. An element (iy, ix) gets its term from tap (ky, kx)
// at oy = (iy+Pad-ky)/Stride, ox = (ix+Pad-kx)/Stride, so ascending
// (oy, ox) is descending (ky, kx): the taps are visited in that order, and
// the sums round exactly as Col2Im's do. Maps under 64 pixels go through
// the gather table, others row segment by row segment.
func Col2ImChunk(dst, col []float64, g ConvGeom) {
	inFeat := g.InC * g.InH * g.InW
	nb := len(dst) / inFeat
	outH, outW := g.OutH(), g.OutW()
	cols := nb * outH * outW
	if len(dst) != nb*inFeat || len(col) != g.ColCols()*cols {
		panic(fmt.Sprintf("tensor: Col2ImChunk dst len %d, col len %d for %+v", len(dst), len(col), g))
	}
	if g.gatherFits(nb) {
		col2imGather(dst, col, nb, g)
		return
	}
	s, plane, taps := g.Stride, g.InH*g.InW, g.KH*g.KW
	for ky := g.KH - 1; ky >= 0; ky-- {
		oy0, oy1 := g.convRun(ky, g.InH, outH)
		for kx := g.KW - 1; kx >= 0; kx-- {
			ox0, ox1 := g.convRun(kx, g.InW, outW)
			for c := 0; c < g.InC; c++ {
				r := c*taps + ky*g.KW + kx
				for i := 0; i < nb; i++ {
					ch := dst[i*inFeat+c*plane : i*inFeat+(c+1)*plane]
					for oy := oy0; oy < oy1; oy++ {
						seg := col[r*cols+(i*outH+oy)*outW : r*cols+(i*outH+oy+1)*outW]
						out := ch[(oy*s-g.Pad+ky)*g.InW:]
						for ox := ox0; ox < ox1; ox++ {
							out[ox*s-g.Pad+kx] += seg[ox]
						}
					}
				}
			}
		}
	}
}

// Bounds of the small-map gather path: output pixels per image, table
// entries (taps × chunk columns), and the scratch that holds a channel's
// planes for every image of the chunk, each followed by a padding slot.
// The scratch's 256 slots make a uint8 table entry an index that needs no
// bounds check.
const (
	gatherMaxPixels = 64
	gatherTabMax    = 1024
	gatherScratch   = 256
)

// gatherFits reports whether the chunk kernels take the gather path for
// nb images: maps under 64 output pixels, whose rows are too short for
// per-row work to pay, within the fixed table and scratch sizes. On larger
// maps the shifted-copy and row paths measured faster.
func (g ConvGeom) gatherFits(nb int) bool {
	hw := g.ColRows()
	return hw < gatherMaxPixels && g.KH*g.KW*nb*hw <= gatherTabMax && nb*(g.InH*g.InW+1) <= gatherScratch
}

// gatherTable fills tab[t·cols + i·hw + p] with the scratch slot that tap
// t = ky·KW+kx reads for output pixel p of image i: the input pixel's
// offset in image i's plane, whose copy starts at slot i·(plane+1), or the
// slot just past that plane where the tap reads padding.
func (g ConvGeom) gatherTable(tab *[gatherTabMax]uint8, nb int) {
	outH, outW := g.OutH(), g.OutW()
	plane := g.InH * g.InW
	e := 0
	for ky := 0; ky < g.KH; ky++ {
		for kx := 0; kx < g.KW; kx++ {
			for i := 0; i < nb; i++ {
				base := i * (plane + 1)
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride - g.Pad + ky
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride - g.Pad + kx
						slot := base + plane
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							slot = base + iy*g.InW + ix
						}
						tab[e] = uint8(slot)
						e++
					}
				}
			}
		}
	}
}

// im2colGather is Im2ColChunk for small maps. Per channel, the chunk's
// planes are copied into a scratch of plane-plus-zero-slot runs; then each
// tap's whole row — all images, all pixels — is one gather through the
// table, with no per-image or per-row work.
func im2colGather(dst, imgs []float64, nb int, g ConvGeom) {
	var tab [gatherTabMax]uint8
	var pb [gatherScratch]float64 // the padding slots stay +0
	g.gatherTable(&tab, nb)
	plane, taps := g.InH*g.InW, g.KH*g.KW
	inFeat, cols := g.InC*plane, nb*g.ColRows()
	for c := 0; c < g.InC; c++ {
		for i := 0; i < nb; i++ {
			copy(pb[i*(plane+1):i*(plane+1)+plane], imgs[i*inFeat+c*plane:])
		}
		for t := 0; t < taps; t++ {
			idx := tab[t*cols : (t+1)*cols]
			out := dst[(c*taps+t)*cols:]
			out = out[:len(idx)]
			for j, slot := range idx {
				out[j] = pb[slot]
			}
		}
	}
}

// col2imGather is Col2ImChunk for small maps. Per channel, the chunk's
// plane gradients are accumulated in the scratch — the padding slots
// absorb the padding taps' terms — taps in descending order, then copied
// back.
func col2imGather(dst, col []float64, nb int, g ConvGeom) {
	var tab [gatherTabMax]uint8
	var pb [gatherScratch]float64
	g.gatherTable(&tab, nb)
	plane, taps := g.InH*g.InW, g.KH*g.KW
	inFeat, cols := g.InC*plane, nb*g.ColRows()
	for c := 0; c < g.InC; c++ {
		for i := 0; i < nb; i++ {
			copy(pb[i*(plane+1):i*(plane+1)+plane], dst[i*inFeat+c*plane:])
		}
		for t := taps - 1; t >= 0; t-- {
			idx := tab[t*cols : (t+1)*cols]
			in := col[(c*taps+t)*cols:]
			in = in[:len(idx)]
			for j, slot := range idx {
				pb[slot] += in[j]
			}
		}
		for i := 0; i < nb; i++ {
			copy(dst[i*inFeat+c*plane:i*inFeat+(c+1)*plane], pb[i*(plane+1):])
		}
	}
}
