package nn

import (
	"fmt"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// bnBenchNets are the batch-norm shapes (channels, map pixels) of the quick
// networks: CIFAR-quick's 6/12/24 channels on 8x8/4x4/2x2 maps at train
// batch 20 and ImageNet-quick's 8/16/32 on 12x12/6x6/3x3 at batch 27.
var bnBenchNets = []struct {
	name   string
	batch  int
	shapes [][2]int
}{
	{"cifarq", 20, [][2]int{{6, 64}, {12, 16}, {24, 4}}},
	{"imagenetq", 27, [][2]int{{8, 144}, {16, 36}, {32, 9}}},
}

// BenchmarkBatchNorm times every quick-network BN layer's training forward
// and backward at the train batch and its evaluation forward at batch 150.
func BenchmarkBatchNorm(b *testing.B) {
	for _, net := range bnBenchNets {
		for _, sh := range net.shapes {
			c, spatial := sh[0], sh[1]
			prefix := fmt.Sprintf("%s/c%d_s%d", net.name, c, spatial)
			g := rng.New(13)
			bn := NewBatchNorm("bench", c, spatial)
			x := tensor.New(net.batch, c*spatial)
			g.FillNormal(x.Data, 1)
			dy := tensor.New(net.batch, c*spatial)
			g.FillNormal(dy.Data, 0.1)
			xEval := tensor.New(evalBatch, c*spatial)
			g.FillNormal(xEval.Data, 1)
			// run times f after prep and one warming call of f, which sizes
			// the layer's buffers.
			run := func(name string, prep, f func()) {
				b.Run(prefix+"/"+name, func(b *testing.B) {
					prep()
					f()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						f()
					}
				})
			}
			fwd := func() { bn.Forward(x, true) }
			run(fmt.Sprintf("train_fwd/n%d", net.batch), func() {}, fwd)
			run(fmt.Sprintf("bwd/n%d", net.batch), fwd, func() { bn.Backward(dy) })
			run(fmt.Sprintf("eval_fwd/n%d", evalBatch), func() {}, func() { bn.Forward(xEval, false) })
		}
	}
}
