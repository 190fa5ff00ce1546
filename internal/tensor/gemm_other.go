//go:build !amd64

package tensor

// useAVX2 is false off amd64: gemmGeneric is the only kernel there.
const useAVX2 = false

// gemmAVX2 is never called off amd64; it exists so gemm compiles.
func gemmAVX2(add bool, m, n, k int, a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int) {
	panic(noAVX2)
}

const noAVX2 = "tensor: no AVX2 kernel on this architecture"
