package nn

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// The BatchNorm contract: whatever kernels BatchNorm uses, every output,
// statistic and gradient must carry the bits of the plain per-channel loops
// below. Per channel c over its m = N·Spatial elements:
//
//   - Σx, Σ(x−mean)², Σdy and Σdy·x̂ are chains from +0 in (sample,
//     position) order;
//   - train: mean = Σx/m, var = Σ(x−mean)²/m, inv = 1/√(var+ε),
//     x̂ = (x−mean)·inv, out = γ·x̂ + β, running = (1−μ)·running + μ·stat;
//   - eval: out = ((γ·(x−mean))·inv) + β with inv from the running variance;
//   - backward: dx = k·((m·dy − Σdy) − x̂·Σdy·x̂) with k = (γ·inv)/m, and
//     Σdy, Σdy·x̂ added to β's and γ's gradients.
//
// Every product is written float64(a*b), so no architecture may fuse it.

// bnRef is a naive BatchNorm: the layer's state, updated by the loops above.
type bnRef struct {
	c, spatial               int
	gamma, beta              []float64
	runMean, runVar          []float64
	mom                      float64
	batchMean, batchVar, inv []float64
	xhat                     []float64
	gammaGrad, betaGrad      []float64
}

func newBNRef(bn *BatchNorm) *bnRef {
	cp := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return &bnRef{
		c: bn.C, spatial: bn.Spatial,
		gamma: cp(bn.Gamma.Value.Data), beta: cp(bn.Beta.Value.Data),
		runMean: cp(bn.RunningMean), runVar: cp(bn.RunningVar), mom: bn.Momentum,
		batchMean: make([]float64, bn.C), batchVar: make([]float64, bn.C), inv: make([]float64, bn.C),
		gammaGrad: cp(bn.Gamma.Grad.Data), betaGrad: cp(bn.Beta.Grad.Data),
	}
}

func (r *bnRef) forward(x []float64, n int, train bool) []float64 {
	feat := r.c * r.spatial
	out := make([]float64, n*feat)
	m := float64(n * r.spatial)
	if train {
		r.xhat = make([]float64, n*feat)
	}
	for c := 0; c < r.c; c++ {
		mean, inv := r.runMean[c], 1/math.Sqrt(r.runVar[c]+BNEpsilon)
		if train {
			sum := 0.0
			for i := 0; i < n; i++ {
				for s := 0; s < r.spatial; s++ {
					sum += x[i*feat+c*r.spatial+s]
				}
			}
			mean = sum / m
			vsum := 0.0
			for i := 0; i < n; i++ {
				for s := 0; s < r.spatial; s++ {
					d := x[i*feat+c*r.spatial+s] - mean
					vsum += float64(d * d)
				}
			}
			variance := vsum / m
			r.batchMean[c], r.batchVar[c] = mean, variance
			r.runMean[c] = float64((1-r.mom)*r.runMean[c]) + float64(r.mom*mean)
			r.runVar[c] = float64((1-r.mom)*r.runVar[c]) + float64(r.mom*variance)
			inv = 1 / math.Sqrt(variance+BNEpsilon)
			r.inv[c] = inv
		}
		g, b := r.gamma[c], r.beta[c]
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				j := i*feat + c*r.spatial + s
				if train {
					xh := (x[j] - mean) * inv
					r.xhat[j] = xh
					out[j] = float64(g*xh) + b
				} else {
					out[j] = float64(g*(x[j]-mean)*inv) + b
				}
			}
		}
	}
	return out
}

func (r *bnRef) backward(dy []float64, n int) []float64 {
	feat := r.c * r.spatial
	dx := make([]float64, n*feat)
	m := float64(n * r.spatial)
	for c := 0; c < r.c; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				j := i*feat + c*r.spatial + s
				sumDy += dy[j]
				sumDyXhat += float64(dy[j] * r.xhat[j])
			}
		}
		r.betaGrad[c] += sumDy
		r.gammaGrad[c] += sumDyXhat
		k := r.gamma[c] * r.inv[c] / m
		for i := 0; i < n; i++ {
			for s := 0; s < r.spatial; s++ {
				j := i*feat + c*r.spatial + s
				dx[j] = k * (float64(m*dy[j]) - sumDy - float64(r.xhat[j]*sumDyXhat))
			}
		}
	}
	return dx
}

func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestBatchNormMatchesNaiveLoopsBitForBit drives BatchNorm and the naive
// reference through a train forward, two accumulated backwards and an eval
// forward on every shape of the grid and demands identical bits in every
// output, statistic and gradient.
func TestBatchNormMatchesNaiveLoopsBitForBit(t *testing.T) {
	g := rng.New(17)
	for _, spatial := range []int{1, 4, 16, 36, 64, 144} {
		for _, c := range []int{1, 3, 6, 12, 24} {
			for _, n := range []int{1, 4, 20, 27, 150} {
				name := fmt.Sprintf("spatial=%d c=%d n=%d", spatial, c, n)
				bn := NewBatchNorm("bn", c, spatial)
				g.FillNormal(bn.Gamma.Value.Data, 1)
				g.FillNormal(bn.Beta.Value.Data, 1)
				g.FillNormal(bn.RunningMean, 1)
				for i := range bn.RunningVar {
					bn.RunningVar[i] = 0.5 + g.Float64()
				}
				g.FillNormal(bn.Gamma.Grad.Data, 1)
				g.FillNormal(bn.Beta.Grad.Data, 1)
				ref := newBNRef(bn)

				feat := c * spatial
				x := tensor.New(n, feat)
				g.FillNormal(x.Data, 2)
				for i := range x.Data { // a per-channel offset, as after a conv
					x.Data[i] += float64(i/spatial%c) - 1
				}
				checkBits(t, name+" train out", bn.Forward(x, true).Data, ref.forward(x.Data, n, true))
				checkBits(t, name+" xhat", bn.xhat.Data, ref.xhat)
				checkBits(t, name+" batch mean", bn.batchMean, ref.batchMean)
				checkBits(t, name+" batch var", bn.batchVar, ref.batchVar)
				checkBits(t, name+" running mean", bn.RunningMean, ref.runMean)
				checkBits(t, name+" running var", bn.RunningVar, ref.runVar)

				for pass := 1; pass <= 2; pass++ {
					dy := tensor.New(n, feat)
					g.FillNormal(dy.Data, 0.1)
					what := fmt.Sprintf("%s backward %d", name, pass)
					checkBits(t, what+" dx", bn.Backward(dy).Data, ref.backward(dy.Data, n))
					checkBits(t, what+" gamma grad", bn.Gamma.Grad.Data, ref.gammaGrad)
					checkBits(t, what+" beta grad", bn.Beta.Grad.Data, ref.betaGrad)
				}

				checkBits(t, name+" eval out", bn.Forward(x, false).Data, ref.forward(x.Data, n, false))
			}
		}
	}
}
