//go:build !amd64

package tensor

// The AVX2 elementwise kernels are never called off amd64 (useAVX2 is
// false); they exist so the dispatch compiles.

func reluAVX2(dst, a *float64, n int) { panic(noAVX2) }

func reluBackwardAVX2(dst, grad, x *float64, n int) { panic(noAVX2) }

func addAVX2(dst, a, b *float64, n int) { panic(noAVX2) }

func addBiasAVX2(dst *float64, ldd int, src *float64, lds, n, rows int, bias *float64) {
	panic(noAVX2)
}

func bnTrainAVX2(out, xhat, x *float64, rows, c, s int, mean, inv, gamma, beta *float64) {
	panic(noAVX2)
}

func bnEvalAVX2(out, x *float64, rows, c, s int, mean, inv, gamma, beta *float64) {
	panic(noAVX2)
}

func bnBackwardAVX2(dx, dy, xhat *float64, rows, c, s int, m float64, k, sumDy, sumDyXhat *float64) {
	panic(noAVX2)
}
