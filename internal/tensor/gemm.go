package tensor

import "fmt"

// Gemm computes the overwrite product C = A·B on strided row-major views:
//
//	C[i*ldc+j] = Σ_p A[i*ars+p*aps] · B[p*ldb+j]   (0 ≤ i < m, 0 ≤ j < n, 0 ≤ p < k)
//
// A is addressed through a row stride and a column stride, so the same call
// takes a matrix (ars = k, aps = 1), its transpose (ars = 1, aps = m) or a
// column window of a wider matrix; B and C are row-major with leading
// dimensions ldb and ldc. c must not alias a or b.
//
// Every output element is the naive chain: it starts at +0 and adds its k
// products in ascending p, each product rounded on its own. The AVX2
// microkernel (gemm_amd64.s) keeps that chain exactly — its lanes run
// across output columns, never across p, and it multiplies and adds with
// separate instructions — so the path taken never changes a bit. Gemm runs
// on the caller's goroutine; the convolution chunks it serves are far below
// the size at which fanning out pays.
func Gemm(m, n, k int, a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int) {
	gemm(false, m, n, k, a, ars, aps, b, ldb, c, ldc)
}

// GemmAdd is Gemm that adds the product into C: each element's sum is
// formed from +0 exactly as Gemm forms it, then added to C in one rounding
// — bit for bit what Gemm into a scratch matrix followed by C += scratch
// computes, without the scratch or the second pass.
func GemmAdd(m, n, k int, a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int) {
	gemm(true, m, n, k, a, ars, aps, b, ldb, c, ldc)
}

func gemm(add bool, m, n, k int, a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int) {
	if m < 0 || n < 0 || k < 0 || ars < 0 || aps < 0 || ldb < n || ldc < n {
		panic(fmt.Sprintf("tensor: Gemm bad dims m=%d n=%d k=%d ars=%d aps=%d ldb=%d ldc=%d", m, n, k, ars, aps, ldb, ldc))
	}
	if m == 0 || n == 0 {
		return
	}
	if need := (m-1)*ldc + n; len(c) < need {
		panic(fmt.Sprintf("tensor: Gemm c len %d, want ≥ %d", len(c), need))
	}
	if k > 0 {
		if need := (m-1)*ars + (k-1)*aps + 1; len(a) < need {
			panic(fmt.Sprintf("tensor: Gemm a len %d, want ≥ %d", len(a), need))
		}
		if need := (k-1)*ldb + n; len(b) < need {
			panic(fmt.Sprintf("tensor: Gemm b len %d, want ≥ %d", len(b), need))
		}
	}
	switch {
	case useAVX2:
		gemmAVX2(add, m, n, k, a, ars, aps, b, ldb, c, ldc)
	case add:
		gemmGenericAdd(m, n, k, a, ars, aps, b, ldb, c, ldc)
	default:
		gemmGeneric(m, n, k, a, ars, aps, b, ldb, c, ldc)
	}
}

// gemmGeneric is the pure-Go reference kernel and the only path off amd64
// or without AVX2. Four rows of C share each loaded B element (the same
// register blocking as mmBlock); every product is wrapped in float64() so
// no architecture may fuse it into the addition.
func gemmGeneric(m, n, k int, a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		c0 := c[i*ldc : i*ldc+n]
		c1 := c[(i+1)*ldc : (i+1)*ldc+n]
		c2 := c[(i+2)*ldc : (i+2)*ldc+n]
		c3 := c[(i+3)*ldc : (i+3)*ldc+n]
		clear(c0)
		clear(c1)
		clear(c2)
		clear(c3)
		for p := 0; p < k; p++ {
			o := i*ars + p*aps
			av0, av1, av2, av3 := a[o], a[o+ars], a[o+2*ars], a[o+3*ars]
			brow := b[p*ldb : p*ldb+n]
			for j, bv := range brow {
				c0[j] += float64(av0 * bv)
				c1[j] += float64(av1 * bv)
				c2[j] += float64(av2 * bv)
				c3[j] += float64(av3 * bv)
			}
		}
	}
	for ; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		clear(crow)
		for p := 0; p < k; p++ {
			av := a[i*ars+p*aps]
			brow := b[p*ldb : p*ldb+n]
			for j, bv := range brow {
				crow[j] += float64(av * bv)
			}
		}
	}
}

// gemmGenericAdd is the pure-Go GemmAdd. The sums must be complete before
// they meet C, so it keeps them in registers: four column chains per row,
// each loaded A element feeding all four.
func gemmGenericAdd(m, n, k int, a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			for p := 0; p < k; p++ {
				av := a[i*ars+p*aps]
				bq := b[p*ldb+j : p*ldb+j+4]
				s0 += float64(av * bq[0])
				s1 += float64(av * bq[1])
				s2 += float64(av * bq[2])
				s3 += float64(av * bq[3])
			}
			crow[j] += s0
			crow[j+1] += s1
			crow[j+2] += s2
			crow[j+3] += s3
		}
		for ; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a[i*ars+p*aps] * b[p*ldb+j])
			}
			crow[j] += s
		}
	}
}

// x86Features holds the CPUID and XCR0 words the AVX2 gate reads.
type x86Features struct {
	maxLeaf uint32 // CPUID(0).EAX: highest basic leaf
	ecx1    uint32 // CPUID(1).ECX: OSXSAVE is bit 27, AVX bit 28
	ebx7    uint32 // CPUID(7,0).EBX: AVX2 is bit 5
	xcr0    uint64 // XGETBV(0); read only when OSXSAVE is set
}

// avx2 reports whether the AVX2 kernel may run. The CPU must support AVX2,
// and the OS must have enabled YMM state: OSXSAVE set and XCR0 holding
// both the SSE (bit 1) and the AVX (bit 2) state components. A hypervisor
// can report the AVX2 bit while leaving YMM state off, and a YMM
// instruction then faults, so the AVX2 bit alone is not enough.
func (f x86Features) avx2() bool {
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5
		ymm     = 1<<1 | 1<<2
	)
	if f.maxLeaf < 7 || f.ecx1&osxsave == 0 || f.ecx1&avx == 0 {
		return false
	}
	return f.xcr0&ymm == ymm && f.ebx7&avx2 != 0
}
