package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lcasgd/internal/cluster"
	"lcasgd/internal/core"
	"lcasgd/internal/data"
	"lcasgd/internal/model"
	"lcasgd/internal/nn"
	"lcasgd/internal/ps"
	"lcasgd/internal/rng"
	"lcasgd/internal/scenario"
	"lcasgd/internal/snapshot"
	"lcasgd/internal/telemetry"
	"lcasgd/internal/tensor"
	"lcasgd/internal/trainer"
)

// cellOut is one ps.Run or ps.Resume call inside a repetition.
type cellOut struct {
	name    string
	res     ps.Result
	samples int // training samples this call consumed
	updates int // server updates this call applied
	resume  bool
	workers int
	evalLen int // train + test rows one curve point evaluates
	trace   *cellTrace
	err     error // failed output check
}

// repOut is one repetition of a workload's measured phase.
type repOut struct {
	cells    []cellOut
	finishes []float64 // completion offsets of the repetition's cells or tasks, seconds
	snap     snapStats
	tel      telStats
}

type snapStats struct {
	ckpts, fullN, fullBytes, deltaN, deltaBytes int
	materialize, decode                         float64 // seconds
}

type telStats struct {
	events, traceBytes int
	export             float64 // seconds
	trace, metrics     []byte
}

// workload is one artifact the benchmark regenerates.
type workload struct {
	name  string
	data  func(seed uint64) data.Config
	model func(*rng.RNG) *nn.Sequential // the network, for the kernel replay
	batch int                           // training batch, for the kernel replay
	// repSeconds is the nominal length of one repetition on a 2-core
	// Xeon, which turns --seconds into a fixed repetition count.
	repSeconds float64
	rep        func(seed uint64, traced bool) repOut
	check      func(*repOut) // workload-specific output checks, run untimed
}

var workloads = []workload{
	{
		name:       "fig3-cifar-m4",
		data:       func(seed uint64) data.Config { return fig3Profile(seed).Data },
		model:      trainer.QuickCIFAR().Model.Build,
		batch:      trainer.QuickCIFAR().Batch,
		rep:        fig3Rep,
		repSeconds: 21,
	},
	{
		name:       "lc-imagenet-m16",
		data:       func(seed uint64) data.Config { return lc16Profile(seed).Data },
		model:      trainer.QuickImageNet().Model.Build,
		batch:      trainer.QuickImageNet().Batch,
		rep:        lc16Rep,
		repSeconds: 12,
		check:      lc16Check,
	},
	{
		name:       "fleet-churn-m4096",
		data:       fleetData,
		model:      fleetModel,
		batch:      fleetBatch,
		rep:        fleetRep,
		repSeconds: 6,
	},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// cellConfig mirrors how trainer assembles an experiment cell's ps.Config
// from a Profile. fig3Rep checks that the keys it yields are the keys the
// sweep itself reports, so the traced run drives the same cells.
func cellConfig(p trainer.Profile, algo ps.Algo, workers int, seed uint64) ps.Config {
	return ps.Config{
		Algo: algo, Workers: workers, BatchSize: p.Batch, Epochs: p.Epochs,
		LR: p.LR, Lambda: p.Lambda, DCLambda: p.DCLam, WeightDecay: p.WD,
		BNMode: core.BNAsync, BNDecay: p.BNDecay, Seed: seed, Cost: p.Cost,
		LossPredHidden: p.LossPredHidden, StepPredHidden: p.StepPredHidden,
		Backend: p.Backend, Scenario: p.Scenario, Topology: p.Topology,
	}
}

// runPool runs tasks on GOMAXPROCS goroutines, splitting the matmul core
// budget the way trainer's sweep pool does, and returns each task's
// completion offset in seconds, sorted.
func runPool(tasks []func()) []float64 {
	jobs := runtime.GOMAXPROCS(0)
	prev := tensor.SetMatmulParallelism(1) // GOMAXPROCS / jobs
	defer tensor.SetMatmulParallelism(prev)
	start := now()
	finishes := make([]float64, len(tasks))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			task()
			finishes[i] = secs(now() - start)
			<-sem
		}()
	}
	wg.Wait()
	sort.Float64s(finishes)
	return finishes
}

// --- fig3-cifar-m4: the ROADMAP headline artifact ---

const fig3Workers = 4

var fig3Algos = append([]ps.Algo{ps.SGD}, trainer.DistributedAlgos...)

func fig3Profile(seed uint64) trainer.Profile {
	p := trainer.QuickCIFAR()
	p.Data.Seed = seed
	p.Jobs = runtime.NumCPU()
	return p
}

func fig3Config(p trainer.Profile, algo ps.Algo, seed uint64) ps.Config {
	m := fig3Workers
	if algo == ps.SGD {
		m = 1
	}
	return cellConfig(p, algo, m, seed)
}

// fig3Rep regenerates Figure 3's M=4 panel. Untraced it calls
// trainer.Fig3Panel itself; traced it drives the same five configs through
// ps.Run on an equally wide pool, because only there can the benchmark own
// Env.Build.
func fig3Rep(seed uint64, traced bool) repOut {
	p := fig3Profile(seed)
	train, test := data.GenerateCached(p.Data)
	var out repOut
	if traced {
		out.cells = make([]cellOut, len(fig3Algos))
		tasks := make([]func(), len(fig3Algos))
		for i, algo := range fig3Algos {
			tasks[i] = func() {
				cfg := fig3Config(p, algo, seed)
				ct := &cellTrace{traced: true}
				res, err := ct.runCell(ps.Env{Train: train, Test: test, Build: p.Model.Build, Cfg: cfg}, nil)
				out.cells[i] = runCellOut(string(algo), res, err, cfg, train, test, ct)
			}
		}
		out.finishes = runPool(tasks)
		return out
	}

	// Progress runs after a cell's future is released, so the stamps are
	// collected through a channel sized to the five cells and drained after
	// the sweep returns.
	type stamp struct {
		at  float64
		key string
	}
	stamps := make(chan stamp, len(fig3Algos))
	p.Progress = func(_, _ int, elapsed time.Duration, key string) {
		stamps <- stamp{elapsed.Seconds(), key}
	}
	cs := trainer.Fig3Panel(p, fig3Workers, seed)
	got := map[string]bool{}
	for range fig3Algos {
		s := <-stamps
		out.finishes = append(out.finishes, s.at)
		got[s.key] = true
	}
	for _, algo := range fig3Algos {
		cfg := fig3Config(p, algo, seed)
		c := runCellOut(string(algo), cs.Results[algo], nil, cfg, train, test, nil)
		if !got[ps.ConfigKey(cfg)] {
			c.err = fmt.Errorf("config drift: the sweep ran no cell with the benchmark's key for %s", algo)
		}
		out.cells = append(out.cells, c)
	}
	return out
}

// runCellOut fills a cellOut for an uninterrupted run.
func runCellOut(name string, res ps.Result, err error, cfg ps.Config, train, test *data.Dataset, ct *cellTrace) cellOut {
	return cellOut{
		name: name, res: res, err: err, trace: ct,
		samples: cfg.Epochs * train.Len(), updates: res.Updates,
		workers: cfg.Workers, evalLen: train.Len() + test.Len(),
	}
}

// --- lc-imagenet-m16: the Figure 7/8 predictor-trace cell ---

const lc16Workers = 16

func lc16Profile(seed uint64) trainer.Profile {
	p := trainer.QuickImageNet()
	p.Data.Seed = seed
	p.Backend = ps.BackendConcurrent
	return p
}

// lc16Rep runs one LC-ASGD M=16 cell on the concurrent backend with a
// telemetry recorder attached and exports its trace and metrics.
func lc16Rep(seed uint64, traced bool) repOut {
	p := lc16Profile(seed)
	train, test := data.GenerateCached(p.Data)
	cfg := cellConfig(p, ps.LCASGD, lc16Workers, seed)
	rec := telemetry.NewRecorder()
	ct := &cellTrace{traced: traced}
	res, err := ct.runCell(ps.Env{Train: train, Test: test, Build: p.Model.Build, Cfg: cfg, Telemetry: rec}, nil)
	out := repOut{cells: []cellOut{runCellOut(string(ps.LCASGD), res, err, cfg, train, test, ct)}}

	t := now()
	var buf bytes.Buffer
	terr := telemetry.WriteChromeTrace(&buf, []telemetry.TraceRun{{Name: "LC-ASGD M=16", Workers: lc16Workers, Events: rec.Events}})
	metrics, merr := json.Marshal(struct {
		Metrics  json.RawMessage       `json:"metrics"`
		Measured []telemetry.JSONMeter `json:"measured"`
	}{rec.Metrics.DeterministicJSON(), telemetry.MetersJSON(rec.Meters())})
	out.tel = telStats{events: len(rec.Events), export: secs(now() - t), traceBytes: buf.Len(), trace: buf.Bytes(), metrics: metrics}
	if err := firstErr(terr, merr); err != nil && out.cells[0].err == nil {
		out.cells[0].err = fmt.Errorf("telemetry export: %w", err)
	}
	return out
}

// lc16Check verifies the exported trace and metrics parse and that the
// Figure 7/8 predictor traces were recorded.
func lc16Check(out *repOut) {
	c := &out.cells[0]
	var events []json.RawMessage
	var metrics map[string]json.RawMessage
	switch {
	case c.err != nil:
	case json.Unmarshal(out.tel.trace, &events) != nil || len(events) == 0:
		c.err = fmt.Errorf("exported trace does not parse as a non-empty event array")
	case json.Unmarshal(out.tel.metrics, &metrics) != nil:
		c.err = fmt.Errorf("exported metrics do not parse")
	case len(c.res.LossTrace) == 0 || len(c.res.StepTrace) == 0:
		c.err = fmt.Errorf("empty predictor trace: loss %d, step %d points", len(c.res.LossTrace), len(c.res.StepTrace))
	}
	out.tel.trace, out.tel.metrics = nil, nil
}

// --- fleet-churn-m4096: engine, fleet and snapshot layers at scale ---

const (
	fleetWorkers = 4096
	fleetRounds  = 24 // iterations per worker
	fleetBatch   = 4
)

var fleetAlgos = []ps.Algo{ps.ASGD, ps.ADPSGD}

// fleetData is the 4-sample training set that keeps network compute small
// next to the engine's per-event work.
func fleetData(seed uint64) data.Config {
	return data.Config{
		Classes: 4, C: 1, H: 2, W: 2, Train: 4, Test: 4,
		NoiseSigma: 0.8, SignalScale: 0.5, Smoothing: 1, Seed: seed,
	}
}

func fleetModel(g *rng.RNG) *nn.Sequential { return model.MLP("fleet", 4, 16, 4, g) }

func fleetEnv(algo ps.Algo, seed uint64) ps.Env {
	train, test := data.GenerateCached(fleetData(seed))
	flaky := scenario.Flaky()
	return ps.Env{
		Train: train, Test: test, Build: fleetModel,
		Cfg: ps.Config{
			Algo: algo, Workers: fleetWorkers, BatchSize: fleetBatch, EvalBatch: fleetBatch,
			// One batch is one epoch here, so a fleet round is fleetWorkers
			// epochs: one curve point per round, and a checkpoint barrier
			// each time the server crosses an epoch, which the barrier's
			// drain stretches to about one round.
			Epochs: fleetWorkers * fleetRounds, EvalEvery: fleetWorkers,
			CheckpointEvery: 1, CheckpointFullEvery: 4,
			LR: 0.05, Lambda: 1, DCLambda: 0.3, BNMode: core.BNAsync, Seed: seed,
			// Iterations last about a virtual second, so the flaky timeline
			// (first crash at 0.9 s, period 3 s) churns the fleet all run.
			Cost: cluster.CostModel{
				MeanComp: 900, MeanComm: 50, Sigma: 0.2,
				Heterogeneity: 0.3, StragglerProb: 0.02, StragglerFactor: 3,
			},
			LossPredHidden: 8, StepPredHidden: 8,
			Backend: ps.BackendSequential, Scenario: &flaky,
		},
	}
}

// ckptChain is an in-memory checkpoint sink. It counts every checkpoint and,
// when mid > 0, keeps the delta chain the benchmark resumes from: the first
// delta past epoch mid together with the full it chains onto. Only that
// pair is retained, so memory stays at two containers.
type ckptChain struct {
	mid    int
	links  [][]byte
	header ps.Checkpoint // the checkpoint the chain ends in
	frozen bool
	stats  snapStats
}

func (c *ckptChain) sink(ck ps.Checkpoint) error {
	c.stats.ckpts++
	if ck.Full {
		c.stats.fullN++
		c.stats.fullBytes += len(ck.Data)
	} else {
		c.stats.deltaN++
		c.stats.deltaBytes += len(ck.Data)
	}
	switch {
	case c.frozen || c.mid == 0:
	case ck.Full:
		c.links = [][]byte{ck.Data}
	case len(c.links) == 1 && ck.Epoch >= c.mid:
		c.links = append(c.links, ck.Data)
		c.header = ck
		c.frozen = true
	default:
		c.links = nil
	}
	return nil
}

func (s *snapStats) add(o snapStats) {
	s.ckpts += o.ckpts
	s.fullN += o.fullN
	s.fullBytes += o.fullBytes
	s.deltaN += o.deltaN
	s.deltaBytes += o.deltaBytes
	s.materialize += o.materialize
	s.decode += o.decode
}

// fleetRep runs ASGD and AD-PSGD at M=4096 under the flaky scenario, each
// checkpointing into an in-memory chain, then resumes each from its
// materialized mid-run chain while the resumed run keeps checkpointing. The
// resumed result must equal the uninterrupted one bit for bit.
func fleetRep(seed uint64, traced bool) repOut {
	var out repOut
	var mu sync.Mutex
	cells := make([][2]cellOut, len(fleetAlgos))
	tasks := make([]func(), len(fleetAlgos))
	for i, algo := range fleetAlgos {
		tasks[i] = func() {
			env := fleetEnv(algo, seed)
			chain := &ckptChain{mid: env.Cfg.Epochs / 2}
			env.CheckpointSink = chain.sink
			ct := &cellTrace{traced: traced}
			res, err := ct.runCell(env, nil)
			run := runCellOut(string(algo), res, err, env.Cfg, env.Train, env.Test, ct)

			st := chain.stats
			rt := &cellTrace{traced: traced}
			resumed := cellOut{name: string(algo) + "/resume", resume: true, workers: fleetWorkers, trace: rt}
			t := now()
			full, err := snapshot.Materialize(chain.links...)
			st.materialize = secs(now() - t)
			if err == nil && !chain.frozen {
				err = fmt.Errorf("the run emitted no delta checkpoint past epoch %d", chain.mid)
			}
			if err == nil && traced {
				t = now()
				for _, b := range append(chain.links, full) {
					if _, derr := snapshot.DecodeContainer(b); derr != nil && err == nil {
						err = derr
					}
				}
				st.decode = secs(now() - t)
			}
			if err == nil {
				after := &ckptChain{}
				env.CheckpointSink = after.sink
				resumed.res, err = rt.runCell(env, full)
				st.add(after.stats)
			}
			resumed.err = err
			if err == nil {
				resumed.samples = (env.Cfg.Epochs - chain.header.Epoch) * env.Train.Len()
				resumed.updates = resumed.res.Updates - chain.header.Updates
				if digest(resumed.res) != digest(res) {
					resumed.err = fmt.Errorf("resumed result differs from the uninterrupted run")
				}
			}
			cells[i] = [2]cellOut{run, resumed}
			mu.Lock()
			out.snap.add(st)
			mu.Unlock()
		}
	}
	out.finishes = runPool(tasks)
	for _, pair := range cells {
		out.cells = append(out.cells, pair[0], pair[1])
	}
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
