package nn

import (
	"fmt"
	"testing"

	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// Layer-level conv benchmarks: the full im2col -> matmul -> transpose path
// (forward) and the gather -> two matmuls -> col2im path (backward) at the
// paper networks' layer shapes, with post-ReLU-like activations so the
// numbers reflect what the training loop actually feeds these layers.

type convBenchShape struct {
	name          string
	inC, inH, out int
	batch         int
}

var convBenchShapes = []convBenchShape{
	{"stem12_12x12", 12, 12, 12, 20}, // ResNetLite50 stem, full-ImageNet input
	{"stage2_24_6x6", 24, 6, 24, 20}, // mid stage after one pool
	{"stage3_48_3x3", 48, 3, 48, 20}, // deepest stage
	{"quick_6_8x8", 6, 8, 6, 20},     // quick-profile stem (alloc-pinned path)
}

func benchConvInput(c convBenchShape, g *rng.RNG) *tensor.Tensor {
	x := tensor.New(c.batch, c.inC*c.inH*c.inH)
	g.FillNormal(x.Data, 1)
	// Post-ReLU profile: about half the activations are exact zeros.
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	return x
}

func BenchmarkConvForward(b *testing.B) {
	for _, s := range convBenchShapes {
		b.Run(fmt.Sprintf("%s_n%d", s.name, s.batch), func(b *testing.B) {
			g := rng.New(11)
			geom := tensor.ConvGeom{InC: s.inC, InH: s.inH, InW: s.inH, KH: 3, KW: 3, Stride: 1, Pad: 1}
			layer := NewConv2D("bench", geom, s.out, g)
			x := benchConvInput(s, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = layer.Forward(x, true)
			}
		})
	}
}

func BenchmarkConvBackward(b *testing.B) {
	for _, s := range convBenchShapes {
		b.Run(fmt.Sprintf("%s_n%d", s.name, s.batch), func(b *testing.B) {
			g := rng.New(11)
			geom := tensor.ConvGeom{InC: s.inC, InH: s.inH, InW: s.inH, KH: 3, KW: 3, Stride: 1, Pad: 1}
			layer := NewConv2D("bench", geom, s.out, g)
			x := benchConvInput(s, g)
			out := layer.Forward(x, true)
			grad := tensor.New(out.Shape[0], out.Shape[1])
			g.FillNormal(grad.Data, 0.1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = layer.Backward(grad)
			}
		})
	}
}

// convLayer is one conv layer of a quick profile's network.
type convLayer struct {
	name string
	g    tensor.ConvGeom
	outC int
}

func conv3(inC, in, stride int) tensor.ConvGeom {
	return tensor.ConvGeom{InC: inC, InH: in, InW: in, KH: 3, KW: 3, Stride: stride, Pad: 1}
}

func conv1(inC, in, stride int) tensor.ConvGeom {
	return tensor.ConvGeom{InC: inC, InH: in, InW: in, KH: 1, KW: 1, Stride: stride}
}

// workloadConvNets are the conv layers the benchmark workloads run:
// CIFAR-quick (stem 6, stages 6/12/24 on 8x8/4x4/2x2 maps, train batch 20)
// and ImageNet-quick (stem 8, stages 8/16/32 on 12x12/6x6/3x3, batch 27).
// Evaluation forwards batches of 150.
var workloadConvNets = []struct {
	name   string
	batch  int
	layers []convLayer
}{
	{"cifarq", 20, []convLayer{
		{"stem_8x8", conv3(3, 8, 1), 6},
		{"s0_8x8", conv3(6, 8, 1), 6},
		{"s1c1_4x4", conv3(6, 8, 2), 12},
		{"s1c2_4x4", conv3(12, 4, 1), 12},
		{"s1proj_4x4", conv1(6, 8, 2), 12},
		{"s2c1_2x2", conv3(12, 4, 2), 24},
		{"s2c2_2x2", conv3(24, 2, 1), 24},
		{"s2proj_2x2", conv1(12, 4, 2), 24},
	}},
	{"imagenetq", 27, []convLayer{
		{"stem_12x12", conv3(3, 12, 1), 8},
		{"s0_12x12", conv3(8, 12, 1), 8},
		{"s1c1_6x6", conv3(8, 12, 2), 16},
		{"s1c2_6x6", conv3(16, 6, 1), 16},
		{"s1proj_6x6", conv1(8, 12, 2), 16},
		{"s2c1_3x3", conv3(16, 6, 2), 32},
		{"s2c2_3x3", conv3(32, 3, 1), 32},
		{"s2proj_3x3", conv1(16, 6, 2), 32},
	}},
}

const evalBatch = 150

func workloadConvInput(g tensor.ConvGeom, n int, r *rng.RNG) *tensor.Tensor {
	x := tensor.New(n, g.InC*g.InH*g.InW)
	r.FillNormal(x.Data, 1)
	for i, v := range x.Data { // post-ReLU profile
		if v < 0 {
			x.Data[i] = 0
		}
	}
	return x
}

// BenchmarkConvWorkloadForward runs each workload layer's training forward
// pass at the train batch and its evaluation forward pass at batch 150.
func BenchmarkConvWorkloadForward(b *testing.B) {
	for _, net := range workloadConvNets {
		for _, l := range net.layers {
			for _, n := range []int{net.batch, evalBatch} {
				b.Run(fmt.Sprintf("%s/%s/n%d", net.name, l.name, n), func(b *testing.B) {
					r := rng.New(11)
					layer := NewConv2D("bench", l.g, l.outC, r)
					x := workloadConvInput(l.g, n, r)
					train := n != evalBatch
					layer.Forward(x, train)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_ = layer.Forward(x, train)
					}
				})
			}
		}
	}
}

// BenchmarkConvWorkloadBackward runs each workload layer's backward pass at
// the train batch.
func BenchmarkConvWorkloadBackward(b *testing.B) {
	for _, net := range workloadConvNets {
		for _, l := range net.layers {
			b.Run(fmt.Sprintf("%s/%s/n%d", net.name, l.name, net.batch), func(b *testing.B) {
				r := rng.New(11)
				layer := NewConv2D("bench", l.g, l.outC, r)
				x := workloadConvInput(l.g, net.batch, r)
				out := layer.Forward(x, true)
				grad := tensor.New(out.Shape[0], out.Shape[1])
				r.FillNormal(grad.Data, 0.1)
				layer.Backward(grad)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = layer.Backward(grad)
				}
			})
		}
	}
}
