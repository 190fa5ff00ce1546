package tensor

import (
	"fmt"
	"math"
	"testing"

	"lcasgd/internal/rng"
)

// guard is the sentinel written around every kernel output; a kernel that
// stores outside its n elements overwrites it.
const guard = 0x7ff4_0000_0bad_f00d

// guarded returns a copy of s in the middle of a buffer of sentinels,
// and that middle window.
func guarded(s []float64) (buf, win []float64) {
	buf = make([]float64, len(s)+8)
	for i := range buf {
		buf[i] = math.Float64frombits(guard)
	}
	win = buf[4 : 4+len(s)]
	copy(win, s)
	return buf, win
}

// TestElementwiseAVX2MatchesGenericBitForBit runs the assembly and the Go
// loops of ReLU, ReLUBackward and Add on identical operands at every tail
// length, with the special values mixed in, writing into a fresh output
// and into each input in place, and demands identical bits — with nothing
// stored outside the n elements.
func TestElementwiseAVX2MatchesGenericBitForBit(t *testing.T) {
	if !probeX86().avx2() {
		t.Skip("CPU or OS without AVX2")
	}
	g := rng.New(5)
	type kernel struct {
		name    string
		inputs  int
		generic func(dst []float64, in [][]float64)
		avx2    func(dst []float64, in [][]float64)
	}
	kernels := []kernel{
		{"ReLU", 1,
			func(dst []float64, in [][]float64) { reluGeneric(dst, in[0]) },
			func(dst []float64, in [][]float64) { reluAVX2(&dst[0], &in[0][0], len(dst)) }},
		{"ReLUBackward", 2,
			func(dst []float64, in [][]float64) { reluBackwardGeneric(dst, in[0], in[1]) },
			func(dst []float64, in [][]float64) { reluBackwardAVX2(&dst[0], &in[0][0], &in[1][0], len(dst)) }},
		{"Add", 2,
			func(dst []float64, in [][]float64) { addGeneric(dst, in[0], in[1]) },
			func(dst []float64, in [][]float64) { addAVX2(&dst[0], &in[0][0], &in[1][0], len(dst)) }},
	}
	for _, k := range kernels {
		for _, n := range elementwiseLens {
			if n == 0 {
				continue // the Go callers never pass n = 0 to the assembly; see TestElementwiseEmpty
			}
			in := make([][]float64, k.inputs)
			for j := range in {
				in[j] = elementwiseOperand(g, n)
			}
			want := make([]float64, n)
			k.generic(want, in)
			// alias = -1 writes a fresh buffer; alias = j overwrites input j.
			for alias := -1; alias < k.inputs; alias++ {
				name := fmt.Sprintf("%s n=%d alias=%d", k.name, n, alias)
				ins := make([][]float64, k.inputs)
				var buf, dst []float64
				for j := range in {
					b, w := guarded(in[j])
					ins[j] = w
					if j == alias {
						buf, dst = b, w
					}
				}
				if alias < 0 {
					buf, dst = guarded(make([]float64, n))
				}
				k.avx2(dst, ins)
				if i := sameBits(dst, want); i >= 0 {
					t.Fatalf("%s: dst[%d] = %v (%#x), want %v (%#x)", name, i, dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
				}
				checkGuards(t, name, buf, n)
			}
		}
	}
}

func checkGuards(t *testing.T, name string, buf []float64, n int) {
	t.Helper()
	for _, i := range []int{0, 1, 2, 3, 4 + n, 5 + n, 6 + n, 7 + n} {
		if math.Float64bits(buf[i]) != guard {
			t.Fatalf("%s: wrote outside the output at offset %d", name, i-4)
		}
	}
}

// TestBatchNormAVX2MatchesGenericBitForBit does the same for the three
// batch-norm kernels over channel counts and run lengths that hit every
// 8- and 4-wide tail, including one-element runs.
func TestBatchNormAVX2MatchesGenericBitForBit(t *testing.T) {
	if !probeX86().avx2() {
		t.Skip("CPU or OS without AVX2")
	}
	g := rng.New(9)
	normal := func(n int) []float64 {
		s := make([]float64, n)
		g.FillNormal(s, 1)
		return s
	}
	for _, c := range []int{1, 2, 3, 5} {
		for _, s := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 36} {
			for _, rows := range []int{1, 3} {
				name := fmt.Sprintf("c=%d s=%d rows=%d", c, s, rows)
				n := rows * c * s
				x, dy, xh := elementwiseOperand(g, n), elementwiseOperand(g, n), normal(n)
				p := [4][]float64{normal(c), normal(c), normal(c), normal(c)}
				m := float64(rows * s)

				wantOut, wantXh := make([]float64, n), make([]float64, n)
				bnTrainGeneric(wantOut, wantXh, x, s, p[0], p[1], p[2], p[3])
				bufOut, out := guarded(make([]float64, n))
				bufXh, gotXh := guarded(make([]float64, n))
				bnTrainAVX2(&out[0], &gotXh[0], &x[0], rows, c, s, &p[0][0], &p[1][0], &p[2][0], &p[3][0])
				compareGuarded(t, "train out "+name, bufOut, out, wantOut)
				compareGuarded(t, "train xhat "+name, bufXh, gotXh, wantXh)

				bnEvalGeneric(wantOut, x, s, p[0], p[1], p[2], p[3])
				bufOut, out = guarded(make([]float64, n))
				bnEvalAVX2(&out[0], &x[0], rows, c, s, &p[0][0], &p[1][0], &p[2][0], &p[3][0])
				compareGuarded(t, "eval "+name, bufOut, out, wantOut)

				bnBackwardGeneric(wantOut, dy, xh, s, m, p[0], p[1], p[2])
				bufOut, out = guarded(make([]float64, n))
				bnBackwardAVX2(&out[0], &dy[0], &xh[0], rows, c, s, m, &p[0][0], &p[1][0], &p[2][0])
				compareGuarded(t, "backward "+name, bufOut, out, wantOut)
			}
		}
	}
}

func compareGuarded(t *testing.T, name string, buf, got, want []float64) {
	t.Helper()
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
	checkGuards(t, name, buf, len(got))
}

// TestAddBiasAVX2MatchesGenericBitForBit compares the bias-add kernels on
// strided rows of every tail length, with the special values mixed into
// both the rows and the biases, and checks the gaps between destination
// rows are left alone.
func TestAddBiasAVX2MatchesGenericBitForBit(t *testing.T) {
	if !probeX86().avx2() {
		t.Skip("CPU or OS without AVX2")
	}
	g := rng.New(13)
	for _, n := range elementwiseLens[1:] {
		for _, rows := range []int{1, 2, 5} {
			lds, ldd := n+3, n+2
			src := elementwiseOperand(g, (rows-1)*lds+n)
			bias := elementwiseOperand(g, rows)
			stale := elementwiseOperand(g, (rows-1)*ldd+n)
			want := append([]float64(nil), stale...)
			addBiasGeneric(want, ldd, src, lds, n, bias)
			buf, got := guarded(stale)
			addBiasAVX2(&got[0], ldd, &src[0], lds, n, rows, &bias[0])
			compareGuarded(t, fmt.Sprintf("AddBias n=%d rows=%d", n, rows), buf, got, want)
		}
	}
}
