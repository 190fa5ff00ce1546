package tensor

import (
	"math"
	"testing"

	"lcasgd/internal/rng"
)

// elementwiseLens hits every 16-, 8- and 4-wide block tail of the kernels.
var elementwiseLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 65, 1000}

// elementwiseSpecials are the values whose handling a vector kernel most
// easily gets wrong: NaNs of both signs (one with a payload), ±0, ±Inf,
// ±subnormals and ±MaxFloat64.
var elementwiseSpecials = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff0_0000_dead_beef),
	math.Float64frombits(0xfff8_0000_0000_1234),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2e-310, -1e-315,
	math.MaxFloat64, -math.MaxFloat64,
}

// elementwiseOperand draws n values, a third of them special.
func elementwiseOperand(g *rng.RNG, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if g.Float64() < 0.33 {
			s[i] = elementwiseSpecials[g.Intn(len(elementwiseSpecials))]
		} else {
			s[i] = g.Normal()
		}
	}
	return s
}

// TestReLUContract pins ReLU to a > 0 ? a : +0 and ReLUBackward to
// x > 0 ? grad : +0 on every special value, through the dispatched entry
// points and the Go loops alike. NaN goes to +0 — not to NaN, as Go's
// builtin max(a, 0) would give — and −0 goes to +0.
func TestReLUContract(t *testing.T) {
	if v := max(math.NaN(), 0); !math.IsNaN(v) {
		t.Fatalf("builtin max(NaN, 0) = %v; the contract below is meant to differ from it", v)
	}
	a := append([]float64{}, elementwiseSpecials...)
	a = append(a, 1.5, -2.5)
	grad := make([]float64, len(a))
	for i := range grad {
		grad[i] = elementwiseSpecials[(i+3)%len(elementwiseSpecials)]
	}
	wantRelu := make([]float64, len(a))
	wantBack := make([]float64, len(a))
	for i, v := range a {
		if v > 0 {
			wantRelu[i], wantBack[i] = v, grad[i]
		} // else both stay +0
	}
	for _, path := range []struct {
		name     string
		relu     func(dst, a []float64)
		reluBack func(dst, grad, x []float64)
	}{
		{"dispatched", func(dst, a []float64) { ReLU(FromSlice(dst, len(dst)), FromSlice(a, len(a))) },
			func(dst, grad, x []float64) {
				ReLUBackward(FromSlice(dst, len(dst)), FromSlice(grad, len(grad)), FromSlice(x, len(x)))
			}},
		{"generic", reluGeneric, reluBackwardGeneric},
	} {
		got := make([]float64, len(a))
		path.relu(got, a)
		if i := sameBits(got, wantRelu); i >= 0 {
			t.Errorf("%s ReLU(%v) = %v, want %v", path.name, a[i], got[i], wantRelu[i])
		}
		path.reluBack(got, grad, a)
		if i := sameBits(got, wantBack); i >= 0 {
			t.Errorf("%s ReLUBackward(grad %v, x %v) = %v, want %v", path.name, grad[i], a[i], got[i], wantBack[i])
		}
	}
}

// TestElementwiseEmpty checks the dispatched kernels take empty operands.
func TestElementwiseEmpty(t *testing.T) {
	e := New(0)
	ReLU(e, e)
	ReLUBackward(e, e, e)
	Add(e, e, e)
	AddBias(nil, 0, nil, 0, 0, []float64{1})
	BatchNormTrain(nil, nil, nil, 4, []float64{0}, []float64{1}, []float64{1}, []float64{0})
	BatchNormEval(nil, nil, 4, []float64{0}, []float64{1}, []float64{1}, []float64{0})
	BatchNormBackward(nil, nil, nil, 4, 1, []float64{1}, []float64{0}, []float64{0})
}
