package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"gpusecmem"
	"gpusecmem/internal/sim"
	"gpusecmem/internal/trace"
)

// The sim batch: memory-intensive benchmarks — lbm writes every 2nd
// op, fdtd2d every 4th, streamcluster only reads — on the insecure
// baseline, both paper encryption families and the scattered-memory
// backend, at the golden horizon so every Result is digest-checked.
var (
	simSchemes = []string{"baseline", "ctr_mac_bmt", "direct_mac_mt", "scattered"}
	simBenches = modelBenches
)

type simCase struct {
	name  string // scheme/benchmark, the golden digest key
	bench string
	cfg   gpusecmem.Config
}

// simBatch builds the batch in a seed-dependent order.
func simBatch(seed uint64, cycles uint64) ([]simCase, error) {
	var cases []simCase
	for _, s := range simSchemes {
		cfg, err := gpusecmem.ConfigForScheme(s)
		if err != nil {
			return nil, err
		}
		cfg.MaxCycles = cycles
		for _, b := range simBenches {
			cases = append(cases, simCase{name: s + "/" + b, bench: b, cfg: cfg})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x51b))
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases, nil
}

// runTiming is one simulation's host-time breakdown.
type runTiming struct {
	newT, runT, encodeT time.Duration
}

// simulate runs one case the way gpusecmem.Simulate does (trace.New,
// sim.New, GPU.RunContext), timing each call, then encodes the Result
// and checks its digest (when g is non-nil).
func simulate(e *env, g *golden, c simCase, parent uint64, id string) (*sim.Result, runTiming, error) {
	var t runTiming
	sp, end := e.tr.start("run", id, parent)
	defer end()

	_, endNew := e.tr.start("sim.new", id, sp)
	t0 := time.Now()
	gen, err := trace.New(c.bench)
	if err != nil {
		endNew()
		return nil, t, fmt.Errorf("%s: %w", c.name, err)
	}
	gpu, err := sim.New(c.cfg, gen)
	t.newT = time.Since(t0)
	endNew()
	if err != nil {
		return nil, t, fmt.Errorf("%s: %w", c.name, err)
	}

	_, endRun := e.tr.start("sim.run", id, sp)
	t0 = time.Now()
	res, err := gpu.RunContext(context.Background())
	t.runT = time.Since(t0)
	endRun()
	if err != nil {
		return nil, t, fmt.Errorf("%s: %w", c.name, err)
	}

	_, endEnc := e.tr.start("encode", id, sp)
	t0 = time.Now()
	raw, err := json.Marshal(res)
	if err == nil && g != nil {
		err = g.check(c.name, raw)
	}
	t.encodeT = time.Since(t0)
	endEnc()
	return res, t, err
}

// batchRun is one repetition of the batch.
type batchRun struct {
	wall    time.Duration
	runs    []runTiming
	results []*sim.Result
	cycles  uint64
}

func runBatch(e *env, g *golden, o *outcome, cases []simCase, rep int, parent uint64) batchRun {
	id := fmt.Sprintf("batch-%d", rep)
	sp, end := e.tr.start("batch", id, parent)
	defer end()
	var b batchRun
	t0 := time.Now()
	for i, c := range cases {
		res, t, err := simulate(e, g, c, sp, fmt.Sprintf("%s#%d.%d", c.name, rep, i))
		o.op(err)
		b.runs = append(b.runs, t)
		if res != nil {
			b.results = append(b.results, res)
			b.cycles += res.Cycles
		}
	}
	b.wall = time.Since(t0)
	return b
}

func runSimMemoryBound(e *env) (*outcome, error) {
	const name = "sim-memory-bound"
	o := newOutcome()
	root, endRoot := e.tr.start(name, name, 0)
	defer endRoot()

	// Set-up: read the golden digests and construct every machine of
	// the batch. It is timed three times before the first batch and, in
	// untraced runs, three times before every batch, so its median
	// samples the host over the whole run rather than its first moments.
	var g *golden
	var cases []simCase
	var setups []float64
	setup := func() error {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			var err error
			if g, err = loadGolden(e.root); err != nil {
				return err
			}
			if cases, err = simBatch(e.seed, g.Cycles); err != nil {
				return err
			}
			for _, c := range cases {
				gen, err := trace.New(c.bench)
				if err != nil {
					return err
				}
				if _, err := sim.New(c.cfg, gen); err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	order := make([]string, len(cases))
	for i, c := range cases {
		order[i] = c.name
	}
	o.info["batch"] = order
	o.info["cycles_per_run"] = g.Cycles
	o.info["golden"] = goldenPath

	var prof *profiler
	if e.traced() {
		prof = startProfiler()
	}

	var batches []batchRun
	start := time.Now()
	for len(batches) < 2 || time.Since(start) < e.seconds {
		if !e.traced() && len(batches) > 0 {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		batches = append(batches, runBatch(e, g, o, cases, len(batches)+1, root))
	}
	o.set("setup_s", median(setups))
	// work_s is the batch as the sum over its cases of each case's
	// median time (set-up, run, encode and digest check): one slow run
	// moves it less than it moves the median batch wall.
	var walls []float64
	var cycles uint64
	opMs := map[string][]float64{}
	caseS := map[string][]float64{}
	for _, b := range batches {
		walls = append(walls, b.wall.Seconds())
		cycles = b.cycles
		for i, r := range b.runs {
			opMs[cases[i].name] = append(opMs[cases[i].name], ms(r.newT+r.runT))
			caseS[cases[i].name] = append(caseS[cases[i].name], (r.newT + r.runT + r.encodeT).Seconds())
		}
	}
	work := 0.0
	for _, v := range caseS {
		work += median(v)
	}
	o.set("work_s", work)
	o.set("op_p50_ms", caseQuantile(opMs, 0.5))
	o.set("op_p99_ms", caseQuantile(opMs, 0.99))
	o.set("sim_cycles_per_s", ratio(float64(cycles), work))
	o.info["batches"] = len(batches)
	o.info["runs_per_batch"] = len(cases)

	setModelMetrics(o, batches[0].results)
	if !e.traced() {
		return o, nil
	}

	w := simWork{reps: len(batches)}
	for _, b := range batches {
		for _, r := range b.results {
			w.add(r)
		}
	}
	layers, err := prof.stop(w, filepath.Join(e.outDir, e.tag))
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		o.set(k, v)
	}
	// One more batch with tracing and profiling off: the overhead is the
	// traced median against it.
	saved := e.tr
	e.tr = nil
	untraced := runBatch(e, g, o, cases, 0, 0).wall
	e.tr = saved
	o.set("trace.overhead_ratio", median(walls)/untraced.Seconds()-1)
	var newMs, runS, encMs []float64
	for _, b := range batches {
		for _, r := range b.runs {
			newMs = append(newMs, ms(r.newT))
			runS = append(runS, r.runT.Seconds())
			encMs = append(encMs, ms(r.encodeT))
		}
	}
	o.set("sim.new_ms", median(newMs))
	o.set("sim.run_s", median(runS))
	o.set("sim.encode_ms", median(encMs))

	return o, shardLayer(e, g, o, cases, untraced)
}

// shardLayer measures internal/shard and the parallel partition engine
// on the same batch at shards = nproc, digest-checked like every run:
// once plain, as the speedup's base against the untraced sequential
// batch (seq), and once under the block profile for barrier waits.
func shardLayer(e *env, g *golden, o *outcome, cases []simCase, seq time.Duration) error {
	sharded := make([]simCase, len(cases))
	for i, c := range cases {
		c.cfg.Shards = runtime.NumCPU()
		sharded[i] = c
	}
	saved := e.tr
	e.tr = nil
	defer func() { e.tr = saved }()
	plain := runBatch(e, g, o, sharded, -1, 0)
	o.set("shard.seq_batch_s", seq.Seconds())
	o.set("shard.sharded_batch_s", plain.wall.Seconds())
	o.set("shard.speedup", seq.Seconds()/plain.wall.Seconds())

	runtime.SetBlockProfileRate(10_000) // sample blocking events of ~10µs and longer
	blocked := runBatch(e, g, o, sharded, -2, 0)
	var buf bytes.Buffer
	err := pprof.Lookup("block").WriteTo(&buf, 1)
	runtime.SetBlockProfileRate(0)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.outDir, e.tag+".block.txt"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	join, park, err := blockedShardSeconds(buf.Bytes())
	if err != nil {
		return err
	}
	kcycles := float64(blocked.cycles) / 1000
	o.set("shard.block_s_per_kcycle", ratio(join, kcycles))
	o.set("shard.park_s_per_kcycle", ratio(park, kcycles))
	return nil
}

// setModelMetrics reports the exact model counts per benchmark,
// summed over the batch's schemes. They explain host cost; a change
// meant only to speed the simulator up must leave them identical.
func setModelMetrics(o *outcome, results []*sim.Result) {
	for _, bench := range modelBenches {
		var instr, cyc, reqs, data, rowHit, rowMiss, l2Acc, l2Miss, metaAcc, metaMiss, metaSec uint64
		for _, r := range results {
			if r.Benchmark != bench {
				continue
			}
			instr += r.Instructions
			cyc += r.Cycles
			reqs += r.TotalRequests()
			data += r.RequestsByKind[sim.KindData]
			rowHit += r.RowHits
			rowMiss += r.RowMisses
			l2Acc += r.L2.Accesses
			l2Miss += r.L2.Misses()
			for _, m := range r.Meta {
				metaAcc += m.Accesses
				metaMiss += m.Misses()
				metaSec += m.MissesSecondary
			}
		}
		f := func(v uint64) float64 { return float64(v) }
		o.set("model.ipc."+bench, ratio(f(instr), f(cyc)))
		o.set("model.dram_req_per_kcycle."+bench, ratio(f(reqs), f(cyc)/1000))
		o.set("model.meta_req_share."+bench, ratio(f(reqs-data), f(reqs)))
		o.set("model.row_hit_ratio."+bench, ratio(f(rowHit), f(rowHit+rowMiss)))
		o.set("model.l2_miss_ratio."+bench, ratio(f(l2Miss), f(l2Acc)))
		o.set("model.meta_miss_ratio."+bench, ratio(f(metaMiss), f(metaAcc)))
		o.set("model.meta_secondary_ratio."+bench, ratio(f(metaSec), f(metaMiss)))
	}
}

// profiler is the traced run's CPU profile and MemStats window.
type profiler struct {
	cpu bytes.Buffer
	ms0 runtime.MemStats
}

func startProfiler() *profiler {
	p := &profiler{}
	runtime.ReadMemStats(&p.ms0)
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		p.cpu.Reset()
	}
	return p
}

// simWork is what a profiled window simulated.
type simWork struct {
	cycles, dramReqs, l2Accesses uint64
	reps                         int // repetitions of the unit of work
}

func (w *simWork) add(r *sim.Result) {
	w.cycles += r.Cycles
	w.dramReqs += r.TotalRequests()
	w.l2Accesses += r.L2.Accesses
}

// stop ends the profile window and converts it into per-layer host
// time per simulated cycle (and per DRAM request / L2 access) and Go
// allocation rates. The raw CPU profile is kept beside the report as
// prefix.cpu.pprof.
func (p *profiler) stop(w simWork, prefix string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.WriteFile(prefix+".cpu.pprof", p.cpu.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out := map[string]float64{}
	cycles, dramReqs, l2 := w.cycles, w.dramReqs, w.l2Accesses
	kcycles := float64(cycles) / 1000
	if p.cpu.Len() > 0 {
		byLayer, err := cpuByLayer(prefix + ".cpu.pprof")
		if err != nil {
			return nil, err
		}
		var total float64
		for l, ns := range byLayer {
			out["host_ns_per_cycle."+l] = ratio(ns, float64(cycles))
			total += ns
		}
		out["host_ns_per_dram_req"] = ratio(total, float64(dramReqs))
		out["host_ns_per_l2_access"] = ratio(total, float64(l2))
	}
	out["go.allocs_per_kcycle"] = ratio(float64(ms1.Mallocs-p.ms0.Mallocs), kcycles)
	out["go.alloc_bytes_per_kcycle"] = ratio(float64(ms1.TotalAlloc-p.ms0.TotalAlloc), kcycles)
	out["go.gc_cycles"] = ratio(float64(ms1.NumGC-p.ms0.NumGC), float64(w.reps))

	return out, nil
}
