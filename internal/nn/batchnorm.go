package nn

import (
	"fmt"
	"math"

	"lcasgd/internal/tensor"
)

// BNEpsilon is the variance floor used by batch normalization.
const BNEpsilon = 1e-5

// BatchNorm normalizes activations per channel over the batch (and spatial
// positions, for convolutional inputs), then applies a learned affine
// transform: y = γ·x̂ + β (Ioffe & Szegedy 2015).
//
// The layer is the integration point for the paper's Async-BN (Section 4,
// Formulas 6–7): the parameter server owns the global running mean/variance,
// and the distributed strategies read the worker's freshly computed batch
// statistics (BatchMean/BatchVar) and write back globally accumulated ones
// (SetRunning). Inference always normalizes with the running statistics, so
// the quality of the server's accumulation policy is directly visible in the
// measured test error — exactly the effect Table 1 reports.
type BatchNorm struct {
	C       int // channels
	Spatial int // H*W (1 for dense layers)

	Gamma, Beta *Param

	// Running statistics used at inference; updated during local training
	// with an EMA of momentum Momentum, or overwritten by the server.
	RunningMean, RunningVar []float64
	Momentum                float64

	// Last batch statistics, exposed to the distributed strategies.
	batchMean, batchVar []float64

	// Backward caches. xhat is reused across iterations (reuseFor); out/dx
	// are the layer's reused output and input-gradient buffers.
	x       *tensor.Tensor
	xhat    *tensor.Tensor
	invStd  []float64
	out, dx *tensor.Tensor

	// Per-channel scratch for the kernels: the backward pass's Σdy, Σdy·x̂
	// and dx scale; inference borrows scale for its inverse deviations.
	sumDy, sumDyXhat, scale []float64
}

// NewBatchNorm builds a BN layer for c channels with the given spatial size
// per channel. γ initializes to 1, β to 0, running variance to 1.
func NewBatchNorm(name string, c, spatial int) *BatchNorm {
	bn := &BatchNorm{
		C:           c,
		Spatial:     spatial,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: make([]float64, c),
		RunningVar:  make([]float64, c),
		Momentum:    0.1,
		batchMean:   make([]float64, c),
		batchVar:    make([]float64, c),
		invStd:      make([]float64, c),
		sumDy:       make([]float64, c),
		sumDyXhat:   make([]float64, c),
		scale:       make([]float64, c),
	}
	bn.Gamma.Value.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward normalizes x ([N, C*Spatial]). In training mode it uses batch
// statistics and updates the running EMA; in inference mode it uses the
// running statistics.
//
// Each channel's sums start from +0 and take the channel's elements in
// (sample, position) order; the elementwise passes run on the tensor
// batch-norm kernels, which keep the per-element operation order.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	feat := bn.C * bn.Spatial
	if x.Rank() != 2 || x.Shape[1] != feat {
		panic(fmt.Sprintf("nn: BatchNorm %s expects [N,%d], got %v", bn.Gamma.Name, feat, x.Shape))
	}
	n := x.Shape[0]
	out := reuse2(&bn.out, n, feat)
	gamma, beta := bn.Gamma.Value.Data, bn.Beta.Value.Data
	if !train {
		for c, v := range bn.RunningVar {
			bn.scale[c] = 1 / math.Sqrt(v+BNEpsilon)
		}
		tensor.BatchNormEval(out.Data, x.Data, bn.Spatial, bn.RunningMean, bn.scale, gamma, beta)
		return out
	}
	bn.x = x
	bn.xhat = reuse2(&bn.xhat, n, feat)
	m := float64(n * bn.Spatial)
	mean, variance := bn.batchMean, bn.batchVar
	channelSums(mean, nil, x.Data, nil, bn.Spatial)
	for c := range mean {
		mean[c] /= m
	}
	channelSqDevSums(variance, x.Data, mean, bn.Spatial)
	mom := bn.Momentum
	for c := range variance {
		variance[c] /= m
		bn.RunningMean[c] = float64((1-mom)*bn.RunningMean[c]) + float64(mom*mean[c])
		bn.RunningVar[c] = float64((1-mom)*bn.RunningVar[c]) + float64(mom*variance[c])
		bn.invStd[c] = 1 / math.Sqrt(variance[c]+BNEpsilon)
	}
	tensor.BatchNormTrain(out.Data, bn.xhat.Data, x.Data, bn.Spatial, mean, bn.invStd, gamma, beta)
	return out
}

// Backward implements the standard batch-norm gradient:
// dx = (γ·inv/m) · (m·dy − Σdy − x̂·Σ(dy·x̂)), with Σdy and Σ(dy·x̂) also
// accumulated into β's and γ's gradients.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := bn.x.Shape[0]
	dx := reuse2(&bn.dx, n, bn.C*bn.Spatial) // every element is assigned below
	m := float64(n * bn.Spatial)
	channelSums(bn.sumDy, bn.sumDyXhat, grad.Data, bn.xhat.Data, bn.Spatial)
	for c, g := range bn.Gamma.Value.Data {
		bn.Beta.Grad.Data[c] += bn.sumDy[c]
		bn.Gamma.Grad.Data[c] += bn.sumDyXhat[c]
		bn.scale[c] = g * bn.invStd[c] / m
	}
	tensor.BatchNormBackward(dx.Data, grad.Data, bn.xhat.Data, bn.Spatial, m, bn.scale, bn.sumDy, bn.sumDyXhat)
	return dx
}

// Params returns γ and β.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutFeatures reports C*Spatial.
func (bn *BatchNorm) OutFeatures() int { return bn.C * bn.Spatial }

// BatchMean returns a copy of the most recent training-batch means.
func (bn *BatchNorm) BatchMean() []float64 {
	return append([]float64(nil), bn.batchMean...)
}

// BatchVar returns a copy of the most recent training-batch variances.
func (bn *BatchNorm) BatchVar() []float64 {
	return append([]float64(nil), bn.batchVar...)
}

// ReadBatchStats copies the most recent training-batch statistics into the
// caller-provided slices (length C each) — the allocation-free variant of
// BatchMean/BatchVar used by the per-iteration statistics push.
func (bn *BatchNorm) ReadBatchStats(mean, variance []float64) {
	if len(mean) != bn.C || len(variance) != bn.C {
		panic(fmt.Sprintf("nn: ReadBatchStats expects %d channels, got %d/%d", bn.C, len(mean), len(variance)))
	}
	copy(mean, bn.batchMean)
	copy(variance, bn.batchVar)
}

// SetRunning overwrites the running statistics — the hook the parameter
// server uses to push its globally accumulated (Async-BN) or
// latest-worker (regular distributed BN) statistics into a worker replica.
func (bn *BatchNorm) SetRunning(mean, variance []float64) {
	if len(mean) != bn.C || len(variance) != bn.C {
		panic(fmt.Sprintf("nn: SetRunning expects %d channels, got %d/%d", bn.C, len(mean), len(variance)))
	}
	copy(bn.RunningMean, mean)
	copy(bn.RunningVar, variance)
}

// Running returns copies of the current running statistics.
func (bn *BatchNorm) Running() (mean, variance []float64) {
	return append([]float64(nil), bn.RunningMean...), append([]float64(nil), bn.RunningVar...)
}

// The per-channel reductions below walk data laid out [N][C][spatial] with
// C = len(sum). Each channel's sum is one chain: it starts at +0 and adds
// the channel's elements in (sample, position) order, exactly the naive
// loop. Channels are independent, so they run four at a time, interleaved
// — four chains in flight instead of one, none of them reassociated. A
// group past the last channel repeats it, recomputing its sum with
// identical bits.

// channelGroup returns the four channels of the group starting at c.
func channelGroup(c, nc int) [4]int {
	return [4]int{c, min(c+1, nc-1), min(c+2, nc-1), min(c+3, nc-1)}
}

// channelSums sets sum[c] = Σ x over channel c's elements and, when dot is
// non-nil, dot[c] = Σ x·y.
func channelSums(sum, dot, x, y []float64, spatial int) {
	feat := len(sum) * spatial
	for c := 0; c < len(sum); c += 4 {
		ch := channelGroup(c, len(sum))
		var s0, s1, s2, s3, d0, d1, d2, d3 float64
		for base := 0; base < len(x); base += feat {
			x0 := x[base+ch[0]*spatial : base+(ch[0]+1)*spatial]
			x1 := x[base+ch[1]*spatial : base+(ch[1]+1)*spatial][:len(x0)]
			x2 := x[base+ch[2]*spatial : base+(ch[2]+1)*spatial][:len(x0)]
			x3 := x[base+ch[3]*spatial : base+(ch[3]+1)*spatial][:len(x0)]
			if dot == nil {
				for j, v := range x0 {
					s0 += v
					s1 += x1[j]
					s2 += x2[j]
					s3 += x3[j]
				}
				continue
			}
			y0 := y[base+ch[0]*spatial : base+(ch[0]+1)*spatial][:len(x0)]
			y1 := y[base+ch[1]*spatial : base+(ch[1]+1)*spatial][:len(x0)]
			y2 := y[base+ch[2]*spatial : base+(ch[2]+1)*spatial][:len(x0)]
			y3 := y[base+ch[3]*spatial : base+(ch[3]+1)*spatial][:len(x0)]
			for j, v := range x0 {
				s0 += v
				d0 += float64(v * y0[j])
				s1 += x1[j]
				d1 += float64(x1[j] * y1[j])
				s2 += x2[j]
				d2 += float64(x2[j] * y2[j])
				s3 += x3[j]
				d3 += float64(x3[j] * y3[j])
			}
		}
		sum[ch[0]], sum[ch[1]], sum[ch[2]], sum[ch[3]] = s0, s1, s2, s3
		if dot != nil {
			dot[ch[0]], dot[ch[1]], dot[ch[2]], dot[ch[3]] = d0, d1, d2, d3
		}
	}
}

// channelSqDevSums sets sum[c] = Σ (x − mean[c])² over channel c's elements.
func channelSqDevSums(sum, x, mean []float64, spatial int) {
	feat := len(sum) * spatial
	for c := 0; c < len(sum); c += 4 {
		ch := channelGroup(c, len(sum))
		m0, m1, m2, m3 := mean[ch[0]], mean[ch[1]], mean[ch[2]], mean[ch[3]]
		var s0, s1, s2, s3 float64
		for base := 0; base < len(x); base += feat {
			x0 := x[base+ch[0]*spatial : base+(ch[0]+1)*spatial]
			x1 := x[base+ch[1]*spatial : base+(ch[1]+1)*spatial][:len(x0)]
			x2 := x[base+ch[2]*spatial : base+(ch[2]+1)*spatial][:len(x0)]
			x3 := x[base+ch[3]*spatial : base+(ch[3]+1)*spatial][:len(x0)]
			for j, v := range x0 {
				d0, d1, d2, d3 := v-m0, x1[j]-m1, x2[j]-m2, x3[j]-m3
				s0 += float64(d0 * d0)
				s1 += float64(d1 * d1)
				s2 += float64(d2 * d2)
				s3 += float64(d3 * d3)
			}
		}
		sum[ch[0]], sum[ch[1]], sum[ch[2]], sum[ch[3]] = s0, s1, s2, s3
	}
}
