package tensor

import (
	"fmt"
	"testing"

	"lcasgd/internal/rng"
)

// elementwiseBenchNets are the activation widths (channels × map pixels)
// the quick networks' ReLUs and residual adds see — CIFAR-quick's 6/12/24
// channels on 8x8/4x4/2x2 maps and ImageNet-quick's 8/16/32 on
// 12x12/6x6/3x3 — at the training batch and the evaluation batch of 150.
var elementwiseBenchNets = []struct {
	name   string
	batch  int
	widths []int
}{
	{"cifarq", 20, []int{6 * 64, 12 * 16, 24 * 4}},
	{"imagenetq", 27, []int{8 * 144, 16 * 36, 32 * 9}},
}

// BenchmarkElementwise times ReLU, ReLUBackward and Add on the dispatched
// path at every quick-network activation size, on post-BN-like data whose
// signs are a coin flip.
func BenchmarkElementwise(b *testing.B) {
	for _, net := range elementwiseBenchNets {
		for _, w := range net.widths {
			for _, n := range []int{net.batch, 150} {
				g := rng.New(3)
				x, y, dst := New(n, w), New(n, w), New(n, w)
				g.FillNormal(x.Data, 1)
				g.FillNormal(y.Data, 1)
				ops := []struct {
					name string
					f    func()
				}{
					{"ReLU", func() { ReLU(dst, x) }},
					{"ReLUBackward", func() { ReLUBackward(dst, y, x) }},
					{"Add", func() { Add(dst, x, y) }},
				}
				for _, op := range ops {
					b.Run(fmt.Sprintf("%s/w%d/n%d/%s", net.name, w, n, op.name), func(b *testing.B) {
						b.ReportAllocs()
						b.SetBytes(int64(8 * n * w))
						for i := 0; i < b.N; i++ {
							op.f()
						}
					})
				}
			}
		}
	}
}
