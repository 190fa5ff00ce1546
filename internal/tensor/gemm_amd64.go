package tensor

// useAVX2 selects the assembly kernel. It is decided once, from the CPU's
// features alone.
var useAVX2 = probeX86().avx2()

// cpuid executes CPUID with EAX = leaf and ECX = sub (gemm_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (gemm_amd64.s). It faults unless OSXSAVE is set.
func xgetbv() (eax, edx uint32)

// gemm4x8AVX2 computes four rows of Gemm's product for n ≥ 4 columns and
// k ≥ 1 (gemm_amd64.s), storing it into C, or adding it to C when add is 1.
// It walks the columns in 8-wide blocks (4-wide when n < 8). Storing, a
// short last block is slid back to end at column n, recomputing a few
// columns with identical bits; adding, n must be a multiple of 4, since a
// slid block would add twice.
//
//go:noescape
func gemm4x8AVX2(k, n int, a *float64, ars, aps int, b *float64, ldb int, c *float64, ldc int, add int)

func probeX86() x86Features {
	var f x86Features
	f.maxLeaf, _, _, _ = cpuid(0, 0)
	if f.maxLeaf >= 1 {
		_, _, f.ecx1, _ = cpuid(1, 0)
	}
	if f.maxLeaf >= 7 {
		_, f.ebx7, _, _ = cpuid(7, 0)
	}
	if f.ecx1&(1<<27) != 0 {
		lo, hi := xgetbv()
		f.xcr0 = uint64(hi)<<32 | uint64(lo)
	}
	return f
}

// gemmAVX2 runs Gemm's (or, with add, GemmAdd's) product on the assembly
// kernel, four rows of C per call. The caller has checked the slice
// bounds. Shapes the kernel does not take (fewer than four rows or
// columns, k = 0) go to the pure-Go kernels, which compute the same
// chains.
//
// Storing, when m is not a multiple of four the last strip is slid back to
// end at row m; the rows it recomputes get identical bits. Adding cannot
// add a row or column twice, so the kernel adds into the largest block of
// whole 4×4 tiles, and the edge tiles are computed slid back, stored into
// a scratch tile, and only their new elements added to C.
func gemmAVX2(add bool, m, n, k int, a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int) {
	if m < 4 || n < 4 || k == 0 {
		if add {
			gemmGenericAdd(m, n, k, a, ars, aps, b, ldb, c, ldc)
		} else {
			gemmGeneric(m, n, k, a, ars, aps, b, ldb, c, ldc)
		}
		return
	}
	if !add {
		for i := 0; ; i += 4 {
			i = min(i, m-4)
			gemm4x8AVX2(k, n, &a[i*ars], ars, aps, &b[0], ldb, &c[i*ldc], ldc, 0)
			if i == m-4 {
				return
			}
		}
	}
	m4, n4 := m&^3, n&^3
	var tile [4 * 8]float64
	for i := 0; i < m4; i += 4 {
		gemm4x8AVX2(k, n4, &a[i*ars], ars, aps, &b[0], ldb, &c[i*ldc], ldc, 1)
		if n4 < n { // columns [n4, n) from the 4 columns ending at n
			gemm4x8AVX2(k, 4, &a[i*ars], ars, aps, &b[n-4], ldb, &tile[0], 4, 0)
			for r := 0; r < 4; r++ {
				for j := n4; j < n; j++ {
					c[(i+r)*ldc+j] += tile[r*4+j-(n-4)]
				}
			}
		}
	}
	if m4 < m { // rows [m4, m) from the 4 rows ending at m, 8 columns a tile
		i := m - 4
		for j0 := 0; j0 < n; j0 += 8 {
			w := min(8, n)
			js := min(j0, n-w) // slid back to end at column n
			gemm4x8AVX2(k, w, &a[i*ars], ars, aps, &b[js], ldb, &tile[0], w, 0)
			for r := m4 - i; r < 4; r++ {
				for j := j0; j < min(j0+8, n); j++ {
					c[(i+r)*ldc+j] += tile[r*w+j-js]
				}
			}
		}
	}
}
