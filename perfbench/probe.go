package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcasgd/internal/nn"
	"lcasgd/internal/ps"
	"lcasgd/internal/rng"
	"lcasgd/internal/tensor"
)

// The nn and ps layers are timed from outside the program: the benchmark
// owns Env.Build, and its wrapper splices identity layers ("probes") into
// every network the engine builds — worker replicas and evaluation nets
// alike. A probe returns its input tensor untouched, so results stay
// bit-identical (checked on every traced run), and stamps the time as the
// forward or backward pass crosses it.

var epoch = time.Now()

// now is the benchmark clock: nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// interval is one [start, end) span in benchmark-clock nanoseconds.
type interval struct{ start, end int64 }

// cellTrace collects what the probes and the checkpoint sink saw during one
// ps.Run or ps.Resume call.
type cellTrace struct {
	traced   bool // false: only the first-forward stamp is taken
	start    int64
	end      int64
	firstFwd atomic.Int64 // first training forward pass; 0 until it happens

	mu   sync.Mutex
	nets []*netProbe
	sink []interval // checkpoint sink calls, serialized by the engine
}

// netProbe is the per-network probe state. A network is driven by one
// goroutine at a time (a worker lane or an evaluation shard), so its fields
// need no locking; they are read after ps.Run has returned.
type netProbe struct {
	fwdStart, bwdStart, convStart int64
	fwdTrain, fwdEval, bwd        []interval
	convFwd, convBwd              []interval
	trainRows, evalRows           int
}

type probeKind int

const (
	firstFwdHook probeKind = iota // untraced: stamps the first training forward only
	netIn                         // before the network's first layer
	netOut                        // after the network's last layer
	convIn                        // before a Conv2D
	convOut                       // after a Conv2D
)

// probe is an identity nn.Layer.
type probe struct {
	kind     probeKind
	cell     *cellTrace
	net      *netProbe
	features int
}

func (p *probe) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train && p.cell.firstFwd.Load() == 0 && (p.kind == firstFwdHook || p.kind == netIn) {
		p.cell.firstFwd.CompareAndSwap(0, now())
	}
	switch p.kind {
	case netIn:
		p.net.fwdStart = now()
		if train {
			p.net.trainRows += x.Shape[0]
		} else {
			p.net.evalRows += x.Shape[0]
		}
	case netOut:
		iv := interval{p.net.fwdStart, now()}
		if train {
			p.net.fwdTrain = append(p.net.fwdTrain, iv)
		} else {
			p.net.fwdEval = append(p.net.fwdEval, iv)
		}
	case convIn:
		p.net.convStart = now()
	case convOut:
		p.net.convFwd = append(p.net.convFwd, interval{p.net.convStart, now()})
	}
	return x
}

func (p *probe) Backward(g *tensor.Tensor) *tensor.Tensor {
	switch p.kind {
	case netOut:
		p.net.bwdStart = now()
	case netIn:
		p.net.bwd = append(p.net.bwd, interval{p.net.bwdStart, now()})
	case convOut:
		p.net.convStart = now()
	case convIn:
		p.net.convBwd = append(p.net.convBwd, interval{p.net.convStart, now()})
	}
	return g
}

func (p *probe) Params() []*nn.Param { return nil }
func (p *probe) OutFeatures() int    { return p.features }

// build wraps a model constructor. Untraced, it prepends the first-forward
// hook; traced, it brackets the whole network and every Conv2D with probes.
// A fresh top-level Sequential is returned so no cached parameter walk of
// the original is reused; probes hold no parameters, so the parameter and
// BatchNorm order the engine flattens is unchanged.
func (c *cellTrace) build(inner func(*rng.RNG) *nn.Sequential) func(*rng.RNG) *nn.Sequential {
	return func(g *rng.RNG) *nn.Sequential {
		net := inner(g)
		if !c.traced {
			hook := &probe{kind: firstFwdHook, cell: c, features: net.OutFeatures()}
			return nn.NewSequential(append([]nn.Layer{hook}, net.Layers...)...)
		}
		np := &netProbe{}
		c.mu.Lock()
		c.nets = append(c.nets, np)
		c.mu.Unlock()
		spliceConv(net, c, np)
		layers := append([]nn.Layer{&probe{kind: netIn, cell: c, net: np, features: net.OutFeatures()}}, net.Layers...)
		layers = append(layers, &probe{kind: netOut, cell: c, net: np, features: net.OutFeatures()})
		return nn.NewSequential(layers...)
	}
}

// spliceConv brackets every Conv2D in s, recursing into nested sequentials
// and residual blocks.
func spliceConv(s *nn.Sequential, c *cellTrace, np *netProbe) {
	var out []nn.Layer
	for _, l := range s.Layers {
		switch v := l.(type) {
		case *nn.Conv2D:
			f := v.OutFeatures()
			out = append(out, &probe{kind: convIn, cell: c, net: np, features: f}, v,
				&probe{kind: convOut, cell: c, net: np, features: f})
			continue
		case *nn.Sequential:
			spliceConv(v, c, np)
		case *nn.Residual:
			spliceConv(v.Path, c, np)
			if v.Shortcut != nil {
				spliceConv(v.Shortcut, c, np)
			}
		}
		out = append(out, l)
	}
	s.Layers = out
}

// sinkFor wraps a checkpoint sink so its calls are timed.
func (c *cellTrace) sinkFor(inner func(ps.Checkpoint) error) func(ps.Checkpoint) error {
	return func(ck ps.Checkpoint) error {
		t := now()
		err := inner(ck)
		c.mu.Lock()
		c.sink = append(c.sink, interval{t, now()})
		c.mu.Unlock()
		return err
	}
}

// runCell calls ps.Run (or ps.Resume when ckpt is non-nil) under the trace.
func (c *cellTrace) runCell(env ps.Env, ckpt []byte) (ps.Result, error) {
	env.Build = c.build(env.Build)
	if env.CheckpointSink != nil && c.traced {
		env.CheckpointSink = c.sinkFor(env.CheckpointSink)
	}
	c.start = now()
	defer func() { c.end = now() }()
	if ckpt != nil {
		return ps.Resume(env, ckpt)
	}
	return ps.Run(env), nil
}

// buildSeconds is ps.Run entry to the first training forward pass.
func (c *cellTrace) buildSeconds() float64 {
	if f := c.firstFwd.Load(); f > 0 {
		return secs(f - c.start)
	}
	return 0
}

// nnTotals sums the probe spans of the cell.
type nnTotals struct {
	fwdTrain, fwdEval, bwd, convFwd, convBwd float64 // seconds, summed across goroutines
	trainRows, evalRows, fwdCalls            int
}

func (c *cellTrace) nn() nnTotals {
	var t nnTotals
	for _, n := range c.nets {
		t.fwdTrain += total(n.fwdTrain)
		t.fwdEval += total(n.fwdEval)
		t.bwd += total(n.bwd)
		t.convFwd += total(n.convFwd)
		t.convBwd += total(n.convBwd)
		t.trainRows += n.trainRows
		t.evalRows += n.evalRows
		t.fwdCalls += len(n.fwdTrain) + len(n.fwdEval)
	}
	return t
}

// covered is the wall time during which at least one nn or checkpoint-sink
// span of the cell was open: the union of the intervals, so concurrent lanes
// are not counted twice.
func (c *cellTrace) covered() float64 {
	var ivs []interval
	for _, n := range c.nets {
		ivs = append(ivs, n.fwdTrain...)
		ivs = append(ivs, n.fwdEval...)
		ivs = append(ivs, n.bwd...)
	}
	ivs = append(ivs, c.sink...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var sum, curS, curE int64
	for i, iv := range ivs {
		if i == 0 || iv.start > curE {
			sum += curE - curS
			curS, curE = iv.start, iv.end
		} else if iv.end > curE {
			curE = iv.end
		}
	}
	sum += curE - curS
	return secs(sum)
}

func total(ivs []interval) float64 {
	var s int64
	for _, iv := range ivs {
		s += iv.end - iv.start
	}
	return secs(s)
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }
