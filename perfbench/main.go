// Command perfbench measures the wall time this repository takes to
// regenerate a paper artifact, end to end, and splits a separate traced run
// of the same work across the system's layers. Run it from the repository
// root through its wrapper, which builds it:
//
//	python3 perfbench/run.py --workload fig3-cifar-m4 --seed 7 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. perfbench/README.md lists the
// workloads and metrics and explains how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"

	"lcasgd/internal/data"
	"lcasgd/internal/ps"
)

// setupSamples is how many times a run generates its dataset to time
// set-up; the first is the cold data.GenerateCached the workload then uses.
const setupSamples = 15

// replaySeconds is the minimum time the traced run replays each kernel.
const replaySeconds = 0.2

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

func run(args []string) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Uint64("seed", 7, "input seed; feeds both data.Config.Seed and ps.Config.Seed")
	seconds := fl.Float64("seconds", 20, "length of the measured phase; at least one repetition always runs")
	traceMode := fl.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	goldenPath := fl.String("golden", "perfbench/golden.json", "recorded digests and counts")
	record := fl.Bool("record", false, "store this run's digests (and, traced, its counts) in the golden file")
	outDir := fl.String("out", ".bench_build/perfbench", "directory for the traced run's span dump")
	commit := fl.String("commit", "unknown", "commit being measured, for the stamp")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode)
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	gold, err := loadGolden(*goldenPath)
	if err != nil {
		return err
	}
	traced := *traceMode == 1
	stamp := fmt.Sprintf("workload=%s seed=%d nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), *commit)
	fmt.Println("# perfbench", stamp)

	// The repetition count follows from --seconds and the workload's nominal
	// repetition time, so parent and change measure the same work. A traced
	// run spends half its time on untraced repetitions, the reference for
	// the overhead and the digests, then runs one traced repetition. It runs
	// at least two untraced ones: a process's first repetition runs cold, so
	// the overhead is taken against the warm ones.
	reps := repCount(*seconds, w.repSeconds)
	var tr *tracer
	if traced {
		tr = &tracer{}
		reps = max(2, repCount(*seconds/2, w.repSeconds))
	}
	gen := measureDataGen(w.data(*seed), tr)
	untraced := measureLoop(w, *seed, false, reps, nil)
	var tracedRep []measured // one traced repetition, or none
	if traced {
		tracedRep = measureLoop(w, *seed, true, 1, tr)
	}

	// Output checks: self-checks, the golden digests, and agreement of every
	// repetition, traced or not, with the first.
	entry, hasGold := gold.entry(w.name, *seed)
	ref := map[string]string{}
	attempted, failed := 0, 0
	for ri, m := range append(append([]measured{}, untraced...), tracedRep...) {
		for _, c := range m.out.cells {
			d := digest(c.res)
			err := firstErr(c.err, checkResult(c.res))
			if want, ok := entry.Digests[c.name]; err == nil && hasGold && ok && want != d {
				err = fmt.Errorf("digest %s, golden %s", d, want)
			}
			if ri == 0 {
				ref[c.name] = d
			} else if err == nil && ref[c.name] != d {
				err = fmt.Errorf("digest %s differs from the first repetition's %s", d, ref[c.name])
			}
			attempted++
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s cell %s failed: %v\n", w.name, c.name, err)
			}
		}
	}

	var metrics []metric
	var counts map[string]float64
	if traced {
		kc := countKernels(modelShapes(w.model))
		rates := replayKernels(w.model, w.batch, replaySeconds, tr)
		metrics, counts = layerMetrics(untraced, tracedRep[0], gen, rates, kc)
		if hasGold && entry.Counts != nil {
			for _, k := range sortedKeys(counts) {
				if was, ok := entry.Counts[k]; !ok || was != counts[k] {
					fmt.Fprintf(os.Stderr, "perfbench: count %s = %v, golden %v\n", k, counts[k], entry.Counts[k])
				}
			}
		}
		if err := tr.write(filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed)), stamp); err != nil {
			return err
		}
	} else {
		metrics = endToEnd(untraced, gen)
	}
	if *record {
		if err := gold.record(*goldenPath, w.name, *seed, ref, counts); err != nil {
			return err
		}
	}

	for i, m := range append(append([]measured{}, untraced...), tracedRep...) {
		kind := "untraced"
		if i >= len(untraced) {
			kind = "traced"
		}
		fmt.Printf("# rep %d %s: wall %.4f s, cpu %.4f s, alloc %.1f MB\n", i, kind, m.wall, m.cpu, m.allocMB)
	}
	fmt.Printf("# cells attempted %d, failed %d\n", attempted, failed)
	// Printed, but not metrics of the result line: test_err is seed-bound,
	// not noise, and cells_failed_frac is failed/attempted of that line.
	fmt.Printf("%-32s %14.6g %s\n", "cells_failed_frac", float64(failed)/float64(attempted), "fraction")
	fmt.Printf("%-32s %14.6g %s\n", "test_err", meanTestErr(untraced[0].out), "fraction")
	doc := map[string]any{}
	for _, m := range metrics {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
		doc[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": doc,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measured is one timed repetition.
type measured struct {
	wall, cpu, allocMB float64
	out                repOut
}

// repCount is the number of repetitions closest to filling seconds, at
// least one.
func repCount(seconds, repSeconds float64) int {
	return max(1, int(math.Round(seconds/repSeconds)))
}

// measureLoop runs n repetitions of the workload, each from a collected heap.
func measureLoop(w workload, seed uint64, traced bool, n int, tr *tracer) []measured {
	var reps []measured
	for len(reps) < n {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		t0 := now()
		out := w.rep(seed, traced)
		t1 := now()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms1)
		if w.check != nil {
			w.check(&out)
		}
		tr.rep(len(reps), t0, t1, out)
		reps = append(reps, measured{
			wall: secs(t1 - t0), cpu: cpu,
			allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6, out: out,
		})
	}
	return reps
}

// measureDataGen times the workload's dataset generation: a cold
// data.GenerateCached, which the repetitions then reuse, followed by
// uncached data.Generate calls of the same config.
func measureDataGen(cfg data.Config, tr *tracer) []float64 {
	out := make([]float64, setupSamples)
	for i := range out {
		t := now()
		if i == 0 {
			data.GenerateCached(cfg)
		} else {
			data.Generate(cfg)
		}
		end := now()
		out[i] = secs(end - t)
		tr.add("data.Generate", "setup", t, end)
	}
	return out
}

// endToEnd computes the untraced metrics.
func endToEnd(reps []measured, gen []float64) []metric {
	var wall, rate, cpu, alloc, build []float64
	for _, m := range reps {
		samples, b := 0, 0.0
		for _, c := range m.out.cells {
			samples += c.samples
			if c.trace != nil && !c.resume {
				b += c.trace.buildSeconds()
			}
		}
		wall = append(wall, m.wall)
		rate = append(rate, float64(samples)/m.wall)
		cpu = append(cpu, m.cpu)
		alloc = append(alloc, m.allocMB)
		build = append(build, b)
	}
	return []metric{
		{"wall_s", "s", median(wall)},
		{"samples_per_s", "samples/s", median(rate)},
		{"setup_s", "s", median(gen) + median(build)},
		{"cpu_s", "s", median(cpu)},
		{"alloc_mb", "MB", median(alloc)},
	}
}

// meanTestErr averages the final test error over the repetition's
// uninterrupted cells (a resumed cell repeats its run's result).
func meanTestErr(out repOut) float64 {
	sum, n := 0.0, 0
	for _, c := range out.cells {
		if !c.resume {
			sum += c.res.FinalTestErr
			n++
		}
	}
	return sum / float64(n)
}

// layerMetrics computes the per-layer metrics of the traced repetition t,
// plus the deterministic counts the golden file records.
func layerMetrics(untraced []measured, t measured, gen []float64, rates kernelRates, kc kernelCounts) ([]metric, map[string]float64) {
	l := repLayers(t.out)
	var walls, tail []float64
	for i, m := range untraced {
		if i > 0 {
			walls = append(walls, m.wall)
		}
		f := m.out.finishes
		if n := len(f); n >= 2 {
			tail = append(tail, f[n-1]-f[n-2])
		} else {
			tail = append(tail, 0)
		}
	}
	ms := []metric{
		{"trainer.cell_s.p50", "s", median(l.cellSpans)},
		{"trainer.cell_s.max", "s", maxOf(l.cellSpans)},
		{"trainer.tail_idle_s", "s", median(tail)},
		{"data.generate_s", "s", median(gen)},
		{"ps.build_s", "s", l.build},
		{"ps.self_s", "s", l.self},
		{"ps.self_us_per_update", "us", 1e6 * l.self / float64(l.updates)},
		{"ps.resume_s", "s", l.resume},
		{"ps.updates", "count", float64(l.updates)},
		{"nn.fwd_train_s", "s", l.nn.fwdTrain},
		{"nn.bwd_s", "s", l.nn.bwd},
		{"nn.fwd_eval_s", "s", l.nn.fwdEval},
		{"nn.conv_fwd_s", "s", l.nn.convFwd},
		{"nn.conv_bwd_s", "s", l.nn.convBwd},
		{"nn.train_samples_per_s", "samples/s", float64(l.nn.trainRows) / (l.nn.fwdTrain + l.nn.bwd)},
		{"nn.eval_samples_per_s", "samples/s", float64(l.nn.evalRows) / l.nn.fwdEval},
		{"nn.eval_useful_frac", "fraction", float64(l.evalReal) / float64(l.evalForwarded)},
		{"nn.us_per_fwd_call", "us", 1e6 * (l.nn.fwdTrain + l.nn.fwdEval) / float64(l.nn.fwdCalls)},
		{"tensor.matmul_gflops", "GFLOP/s", rates.matmul},
		{"tensor.matmul_transa_gflops", "GFLOP/s", rates.transA},
		{"tensor.matmul_transb_gflops", "GFLOP/s", rates.transB},
		{"tensor.im2col_gbps", "GB/s", rates.im2col},
		{"tensor.col2im_gbps", "GB/s", rates.col2im},
		{"tensor.gemm_gflop_per_sample", "GFLOP", float64(kc.gemmFlop) / 1e9},
		{"tensor.im2col_mb_per_sample", "MB", float64(kc.im2colBytes) / 1e6},
		{"core.loss_pred_ms", "ms", l.lossPredMs},
		{"core.step_pred_ms", "ms", l.stepPredMs},
		{"core.pred_frac", "fraction", ratio(l.pred, l.lcSpan)},
		{"snapshot.ckpts", "count", float64(l.snap.ckpts)},
		{"snapshot.full_kb", "KB", ratio(float64(l.snap.fullBytes), 1024*float64(l.snap.fullN))},
		{"snapshot.delta_kb", "KB", ratio(float64(l.snap.deltaBytes), 1024*float64(l.snap.deltaN))},
		{"snapshot.materialize_s", "s", l.snap.materialize},
		{"snapshot.decode_s", "s", l.snap.decode},
		{"telemetry.events", "count", float64(l.tel.events)},
		{"telemetry.export_s", "s", l.tel.export},
		{"telemetry.trace_mb", "MB", float64(l.tel.traceBytes) / 1e6},
		{"trace.overhead_frac", "fraction", t.wall/median(walls) - 1},
	}
	counts := map[string]float64{
		"ps.updates":                     float64(l.updates),
		"nn.train_rows":                  float64(l.nn.trainRows),
		"nn.eval_rows_real":              float64(l.evalReal),
		"nn.eval_rows_forwarded":         float64(l.evalForwarded),
		"tensor.gemm_flop_per_sample":    float64(kc.gemmFlop),
		"tensor.im2col_bytes_per_sample": float64(kc.im2colBytes),
		"snapshot.ckpts":                 float64(l.snap.ckpts),
		"snapshot.full_bytes":            float64(l.snap.fullBytes),
		"snapshot.delta_bytes":           float64(l.snap.deltaBytes),
		"telemetry.events":               float64(l.tel.events),
	}
	return ms, counts
}

// layerRep is the per-layer breakdown of one traced repetition.
type layerRep struct {
	cellSpans                 []float64 // uninterrupted cells
	build, self, resume, pred float64   // seconds
	lcSpan                    float64   // summed span of the LC-ASGD cells
	lossPredMs, stepPredMs    float64   // mean over LC-ASGD cells
	updates                   int
	evalReal, evalForwarded   int // uninterrupted cells
	nn                        nnTotals
	snap                      snapStats
	tel                       telStats
}

func repLayers(out repOut) layerRep {
	l := layerRep{snap: out.snap, tel: out.tel}
	lcCells := 0
	for _, c := range out.cells {
		ct := c.trace
		span := secs(ct.end - ct.start)
		t := ct.nn()
		l.nn.fwdTrain += t.fwdTrain
		l.nn.fwdEval += t.fwdEval
		l.nn.bwd += t.bwd
		l.nn.convFwd += t.convFwd
		l.nn.convBwd += t.convBwd
		l.nn.trainRows += t.trainRows
		l.nn.evalRows += t.evalRows
		l.nn.fwdCalls += t.fwdCalls
		pred := predSeconds(c)
		l.self += math.Max(0, span-ct.covered()-pred)
		l.updates += c.updates
		if c.resume {
			l.resume += span
		} else {
			l.cellSpans = append(l.cellSpans, span)
			l.build += ct.buildSeconds()
			l.evalReal += len(c.res.Points) * c.evalLen
			l.evalForwarded += t.evalRows
		}
		if c.res.Algo == ps.LCASGD {
			lcCells++
			l.pred += pred
			l.lcSpan += span
			l.lossPredMs += c.res.AvgLossPredMs
			l.stepPredMs += c.res.AvgStepPredMs
		}
	}
	if lcCells > 0 {
		l.lossPredMs /= float64(lcCells)
		l.stepPredMs /= float64(lcCells)
	}
	return l
}

// predSeconds estimates an LC-ASGD cell's predictor training time from the
// per-call means the Result reports: the loss predictor is called once per
// traced point plus the seeding call, the step predictor once per traced
// point plus each worker's label-less first call.
func predSeconds(c cellOut) float64 {
	r := c.res
	return (r.AvgLossPredMs*float64(len(r.LossTrace)+1) + r.AvgStepPredMs*float64(len(r.StepTrace)+c.workers)) / 1e3
}

// tracer keeps the traced run's spans in memory and writes them at the end.
type tracer struct {
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// add records a span; a nil tracer records nothing.
func (t *tracer) add(name, parent string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{name, parent, float64(start) / 1e6, float64(end-start) / 1e6})
	t.mu.Unlock()
}

// rep records a traced repetition: its span, each cell's span, and each
// cell's summed child spans and self time. A nil tracer records nothing.
func (t *tracer) rep(i int, start, end int64, out repOut) {
	if t == nil {
		return
	}
	rep := fmt.Sprintf("traced%d", i)
	t.add(rep, "", start, end)
	for _, ch := range []struct {
		name string
		s    float64
	}{{"snapshot.materialize", out.snap.materialize}, {"snapshot.decode", out.snap.decode}, {"telemetry.export", out.tel.export}} {
		if ch.s > 0 {
			t.add(ch.name, rep, start, start+int64(ch.s*1e9))
		}
	}
	for _, c := range out.cells {
		ct := c.trace
		call := "ps.Run"
		if c.resume {
			call = "ps.Resume"
		}
		cell := rep + "/" + call + ":" + c.name
		t.add(cell, rep, ct.start, ct.end)
		n := ct.nn()
		pred := predSeconds(c)
		for _, ch := range []struct {
			name string
			s    float64
		}{
			{"ps.build", ct.buildSeconds()}, {"nn.fwd_train", n.fwdTrain}, {"nn.bwd", n.bwd},
			{"nn.fwd_eval", n.fwdEval}, {"nn.conv_fwd", n.convFwd}, {"nn.conv_bwd", n.convBwd},
			{"snapshot.sink", total(ct.sink)}, {"core.pred", pred},
			{"ps.self", math.Max(0, secs(ct.end-ct.start)-ct.covered()-pred)},
		} {
			t.add(ch.name, cell, ct.start, ct.start+int64(ch.s*1e9))
		}
	}
}

// write dumps the spans as JSON.
func (t *tracer) write(path, stamp string) error {
	b, err := json.MarshalIndent(struct {
		Stamp string    `json:"stamp"`
		Note  string    `json:"note"`
		Spans []spanRec `json:"spans"`
	}{stamp, "child spans of a cell or repetition are sums over its calls, networks and goroutines, laid out from the parent's start", t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
