package tensor

import (
	"testing"

	"lcasgd/internal/rng"
)

// TestGemmAVX2MatchesGenericBitForBit runs the assembly kernel and the
// pure-Go kernels on identical operands, storing and adding, over a grid
// that hits every 4-row and 8-column tail, both A layouts, and ±0 /
// subnormal / overflowing values, and demands identical bits everywhere in
// C — including the padding between rows, which neither may touch.
func TestGemmAVX2MatchesGenericBitForBit(t *testing.T) {
	if !probeX86().avx2() {
		t.Skip("CPU or OS without AVX2")
	}
	g := rng.New(11)
	for _, m := range gemmDims {
		for _, k := range gemmDims {
			for _, n := range gemmDims {
				for _, transA := range []bool{false, true} {
					for _, add := range []bool{false, true} {
						a, ars, aps, b, ldb, c, ldc := gemmOperands(g, m, n, k, transA)
						want := append([]float64(nil), c...)
						if add {
							gemmGenericAdd(m, n, k, a, ars, aps, b, ldb, want, ldc)
						} else {
							gemmGeneric(m, n, k, a, ars, aps, b, ldb, want, ldc)
						}
						gemmAVX2(add, m, n, k, a, ars, aps, b, ldb, c, ldc)
						if i := sameBits(c, want); i >= 0 {
							t.Fatalf("m=%d k=%d n=%d transA=%v add=%v: c[%d] = %v, want %v", m, k, n, transA, add, i, c[i], want[i])
						}
					}
				}
			}
		}
	}
}
