package main

import (
	"lcasgd/internal/nn"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// The tensor layer is measured by replaying its kernels on the shapes the
// workload's model really calls them with: per image for every Conv2D
// (im2col lowering, then one matmul per pass) and per batch for every
// Dense. One replay round is the kernel work of one training batch.

type convShape struct {
	g    tensor.ConvGeom
	outC int
}

type denseShape struct{ in, out int }

// modelShapes walks a freshly built network for its Conv2D and Dense layers.
func modelShapes(build func(*rng.RNG) *nn.Sequential) (convs []convShape, denses []denseShape) {
	var walk func(l nn.Layer)
	walk = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			convs = append(convs, convShape{v.Geom, v.OutC})
		case *nn.Dense:
			denses = append(denses, denseShape{v.In, v.Out})
		case *nn.Sequential:
			for _, inner := range v.Layers {
				walk(inner)
			}
		case *nn.Residual:
			walk(v.Path)
			if v.Shortcut != nil {
				walk(v.Shortcut)
			}
		}
	}
	walk(build(rng.New(1)))
	return convs, denses
}

// kernelCounts are the deterministic per-training-sample work counts.
type kernelCounts struct {
	gemmFlop    int // forward + both backward matmuls
	im2colBytes int // lowered-matrix bytes Im2Col writes, forward + backward
}

func countKernels(convs []convShape, denses []denseShape) kernelCounts {
	var k kernelCounts
	for _, c := range convs {
		hw, cc := c.g.ColRows(), c.g.ColCols()
		k.gemmFlop += 3 * 2 * hw * cc * c.outC
		k.im2colBytes += 2 * hw * cc * 8
	}
	for _, d := range denses {
		k.gemmFlop += 3 * 2 * d.in * d.out
	}
	return k
}

// kernelRates are measured kernel throughputs over one workload's shape mix.
type kernelRates struct {
	matmul, transA, transB float64 // GFLOP/s
	im2col, col2im         float64 // GB/s of lowered-matrix bytes
}

// replayKernels times each kernel over the model's shape mix at batch size
// batch, for at least minSeconds per kernel, on one core as the workloads'
// pools run them. Kernels the model does not use report 0.
func replayKernels(build func(*rng.RNG) *nn.Sequential, batch int, minSeconds float64, tr *tracer) kernelRates {
	convs, denses := modelShapes(build)
	prev := tensor.SetMatmulParallelism(1)
	defer tensor.SetMatmulParallelism(prev)
	g := rng.New(2)
	filled := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		g.FillNormal(t.Data, 1)
		return t
	}

	type convBufs struct {
		img, col, w, prod, dOut, dW, dCol, dImg *tensor.Tensor
	}
	cb := make([]convBufs, len(convs))
	for i, c := range convs {
		hw, cc := c.g.ColRows(), c.g.ColCols()
		cb[i] = convBufs{
			img: filled(c.g.InC * c.g.InH * c.g.InW), col: filled(hw, cc), w: filled(cc, c.outC),
			prod: tensor.New(hw, c.outC), dOut: filled(hw, c.outC), dW: tensor.New(cc, c.outC),
			dCol: filled(hw, cc), dImg: tensor.New(c.g.InC * c.g.InH * c.g.InW),
		}
	}
	type denseBufs struct{ x, w, out, grad, dW, dx *tensor.Tensor }
	db := make([]denseBufs, len(denses))
	for i, d := range denses {
		db[i] = denseBufs{
			x: filled(batch, d.in), w: filled(d.in, d.out), out: tensor.New(batch, d.out),
			grad: filled(batch, d.out), dW: tensor.New(d.in, d.out), dx: tensor.New(batch, d.in),
		}
	}
	var gemmFlop, colBytes int // per round, one pass
	for _, c := range convs {
		gemmFlop += batch * 2 * c.g.ColRows() * c.g.ColCols() * c.outC
		colBytes += batch * c.g.ColRows() * c.g.ColCols() * 8
	}
	for _, d := range denses {
		gemmFlop += 2 * batch * d.in * d.out
	}

	// timeRounds repeats one round of a kernel until minSeconds have passed
	// and returns the rounds per second.
	timeRounds := func(name string, round func()) float64 {
		start := now()
		n := 0
		for n == 0 || secs(now()-start) < minSeconds {
			round()
			n++
		}
		end := now()
		tr.add("tensor.replay."+name, "tensor.replay", start, end)
		return float64(n) / secs(end-start)
	}
	var r kernelRates
	if gemmFlop == 0 {
		return r
	}
	gf := float64(gemmFlop) / 1e9
	r.matmul = gf * timeRounds("matmul", func() {
		for i := range convs {
			for b := 0; b < batch; b++ {
				tensor.MatMulInto(cb[i].prod, cb[i].col, cb[i].w)
			}
		}
		for i := range denses {
			tensor.MatMulInto(db[i].out, db[i].x, db[i].w)
		}
	})
	r.transA = gf * timeRounds("matmul_transa", func() {
		for i := range convs {
			for b := 0; b < batch; b++ {
				tensor.MatMulTransAInto(cb[i].dW, cb[i].col, cb[i].dOut)
			}
		}
		for i := range denses {
			tensor.MatMulTransAInto(db[i].dW, db[i].x, db[i].grad)
		}
	})
	r.transB = gf * timeRounds("matmul_transb", func() {
		for i := range convs {
			for b := 0; b < batch; b++ {
				tensor.MatMulTransBInto(cb[i].dCol, cb[i].dOut, cb[i].w)
			}
		}
		for i := range denses {
			tensor.MatMulTransBInto(db[i].dx, db[i].grad, db[i].w)
		}
	})
	if colBytes == 0 {
		return r
	}
	gb := float64(colBytes) / 1e9
	r.im2col = gb * timeRounds("im2col", func() {
		for i, c := range convs {
			for b := 0; b < batch; b++ {
				tensor.Im2Col(cb[i].col.Data, cb[i].img.Data, c.g)
			}
		}
	})
	r.col2im = gb * timeRounds("col2im", func() {
		for i, c := range convs {
			for b := 0; b < batch; b++ {
				tensor.Col2Im(cb[i].dImg.Data, cb[i].dCol.Data, c.g)
			}
		}
	})
	return r
}
