package tensor

import (
	"math"
	"testing"

	"lcasgd/internal/rng"
)

var gemmDims = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 65, 100}

// gemmOperands draws A, B and C for an m×n×k product with A stored
// transposed when transA is set, and pads every row so a kernel that
// reads or writes past its view shows up. Values mix normal numbers with
// ±0, subnormals and magnitudes whose products overflow.
func gemmOperands(g *rng.RNG, m, n, k int, transA bool) (a []float64, ars, aps int, b []float64, ldb int, c []float64, ldc int) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -4e-320, 1e-310, 1e300, -3e300, 1e-300}
	fill := func(s []float64) {
		for i := range s {
			if g.Float64() < 0.2 {
				s[i] = special[g.Intn(len(special))]
			} else {
				s[i] = g.Normal()
			}
		}
	}
	if transA {
		ars, aps = 1, m+3
	} else {
		ars, aps = k+3, 1
	}
	a = make([]float64, (m+3)*(k+3))
	ldb, ldc = n+5, n+6
	b = make([]float64, (k+1)*ldb)
	c = make([]float64, (m+1)*ldc)
	fill(a)
	fill(b)
	fill(c) // stale contents for Gemm to overwrite, a start for GemmAdd
	return a, ars, aps, b, ldb, c, ldc
}

func sameBits(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// TestGemmGenericMatchesNaiveChain pins the reference kernels to the naive
// per-element chain (+0, then products in ascending p) bit for bit: Gemm
// stores the sum, GemmAdd adds it to C in one rounding.
func TestGemmGenericMatchesNaiveChain(t *testing.T) {
	g := rng.New(7)
	for _, m := range gemmDims {
		for _, n := range []int{0, 1, 5, 8, 17} {
			for _, k := range []int{0, 1, 3, 9, 65} {
				for _, transA := range []bool{false, true} {
					for _, add := range []bool{false, true} {
						a, ars, aps, b, ldb, c, ldc := gemmOperands(g, m, n, k, transA)
						want := append([]float64(nil), c...)
						for i := 0; i < m; i++ {
							for j := 0; j < n; j++ {
								s := 0.0
								for p := 0; p < k; p++ {
									s += float64(a[i*ars+p*aps] * b[p*ldb+j])
								}
								if add {
									want[i*ldc+j] += s
								} else {
									want[i*ldc+j] = s
								}
							}
						}
						if add {
							gemmGenericAdd(m, n, k, a, ars, aps, b, ldb, c, ldc)
						} else {
							gemmGeneric(m, n, k, a, ars, aps, b, ldb, c, ldc)
						}
						if i := sameBits(c, want); i >= 0 {
							t.Fatalf("m=%d n=%d k=%d transA=%v add=%v: c[%d] = %v, want %v", m, n, k, transA, add, i, c[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestGemmBoundsPanics(t *testing.T) {
	cases := map[string]func(){
		"short c":   func() { Gemm(2, 2, 2, make([]float64, 4), 2, 1, make([]float64, 4), 2, make([]float64, 3), 2) },
		"short a":   func() { Gemm(2, 2, 2, make([]float64, 3), 2, 1, make([]float64, 4), 2, make([]float64, 4), 2) },
		"short b":   func() { Gemm(2, 2, 2, make([]float64, 4), 2, 1, make([]float64, 3), 2, make([]float64, 4), 2) },
		"ldc < n":   func() { Gemm(2, 2, 2, make([]float64, 4), 2, 1, make([]float64, 4), 2, make([]float64, 4), 1) },
		"negative":  func() { Gemm(-1, 2, 2, nil, 2, 1, nil, 2, nil, 2) },
		"add short": func() { GemmAdd(2, 2, 2, make([]float64, 4), 2, 1, make([]float64, 4), 2, make([]float64, 3), 2) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestAVX2GateDecision is the gate's truth table. AVX2 is usable only with
// leaf 7 present, OSXSAVE and AVX set, and XCR0 enabling both SSE and YMM
// state — the AVX2 bit alone is not enough.
func TestAVX2GateDecision(t *testing.T) {
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5
		sseYMM  = 0b110
	)
	full := x86Features{maxLeaf: 13, ecx1: osxsave | avx, ebx7: avx2, xcr0: 0b111}
	cases := []struct {
		name string
		f    x86Features
		want bool
	}{
		{"all present", full, true},
		{"minimal XCR0", x86Features{maxLeaf: 7, ecx1: osxsave | avx, ebx7: avx2, xcr0: sseYMM}, true},
		{"no AVX2 bit", x86Features{maxLeaf: 13, ecx1: osxsave | avx, xcr0: 0b111}, false},
		{"OSXSAVE off", x86Features{maxLeaf: 13, ecx1: avx, ebx7: avx2, xcr0: 0b111}, false},
		{"XCR0 lacks YMM", x86Features{maxLeaf: 13, ecx1: osxsave | avx, ebx7: avx2, xcr0: 0b011}, false},
		{"XCR0 lacks SSE", x86Features{maxLeaf: 13, ecx1: osxsave | avx, ebx7: avx2, xcr0: 0b101}, false},
		{"XCR0 zero", x86Features{maxLeaf: 13, ecx1: osxsave | avx, ebx7: avx2}, false},
		{"AVX bit off", x86Features{maxLeaf: 13, ecx1: osxsave, ebx7: avx2, xcr0: 0b111}, false},
		{"no leaf 7", x86Features{maxLeaf: 6, ecx1: osxsave | avx, ebx7: avx2, xcr0: 0b111}, false},
	}
	for _, tc := range cases {
		if got := tc.f.avx2(); got != tc.want {
			t.Errorf("%s: avx2() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
