package tensor

// The AVX2 twins of the elementwise kernels (elementwise_amd64.s). Each
// takes n ≥ 1 elements (rows ≥ 1 rows of n elements for addBias, and of
// c channels × s ≥ 1 elements for the batch-norm kernels); the Go callers check the lengths. Vector blocks
// run across elements and the remainder takes the same operations in
// scalar form, so every tail length computes what the Go loop computes.

//go:noescape
func reluAVX2(dst, a *float64, n int)

//go:noescape
func reluBackwardAVX2(dst, grad, x *float64, n int)

//go:noescape
func addAVX2(dst, a, b *float64, n int)

//go:noescape
func addBiasAVX2(dst *float64, ldd int, src *float64, lds, n, rows int, bias *float64)

//go:noescape
func bnTrainAVX2(out, xhat, x *float64, rows, c, s int, mean, inv, gamma, beta *float64)

//go:noescape
func bnEvalAVX2(out, x *float64, rows, c, s int, mean, inv, gamma, beta *float64)

//go:noescape
func bnBackwardAVX2(dx, dy, xhat *float64, rows, c, s int, m float64, k, sumDy, sumDyXhat *float64)
