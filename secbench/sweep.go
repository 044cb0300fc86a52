package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gpusecmem"
	"gpusecmem/internal/runner"
)

// The light sweep: every experiment in the catalogue, restricted to
// non- and medium-intensive benchmarks at a short horizon, so the
// runner, the memo/singleflight, per-run set-up and the SM-issue side
// of the cycle loop do the work rather than DRAM.
var sweepBenches = []string{"heartwall", "lavaMD", "nw", "b+tree", "backprop", "kmeans", "bfs"}

const sweepCycles = 1000

func sweepOptions() gpusecmem.Options {
	return gpusecmem.Options{Cycles: sweepCycles, Benchmarks: sweepBenches}
}

// sweepExperiments is the catalogue in a seed-dependent order (it
// changes the plan order the worker pool drains, not the output).
func sweepExperiments(seed uint64) []gpusecmem.Experiment {
	exps := gpusecmem.Experiments()
	rng := rand.New(rand.NewPCG(seed, 0x5eeb))
	rng.Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })
	return exps
}

// renderDigest renders every experiment's tables as text, in
// experiment-ID order, and hashes the lot.
func renderDigest(rep *runner.Report) (string, error) {
	results := append([]runner.ExperimentResult(nil), rep.Results...)
	sort.Slice(results, func(i, j int) bool { return results[i].Experiment.ID < results[j].Experiment.ID })
	var buf bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&buf, "== %s\n", r.Experiment.ID)
		for _, t := range r.Tables {
			if err := t.Write(&buf, "text"); err != nil {
				return "", fmt.Errorf("render %s: %w", r.Experiment.ID, err)
			}
		}
	}
	return sha256Hex(buf.Bytes()), nil
}

// sweepRep is one repetition of the sweep with its checks applied.
type sweepRep struct {
	rep    *runner.Report
	gctx   *gpusecmem.Context
	digest string
}

func runOneSweep(e *env, o *outcome, exps []gpusecmem.Experiment, jobs int, n int, parent uint64) sweepRep {
	id := fmt.Sprintf("sweep-%d", n)
	sp, end := e.tr.start("sweep", id, parent)
	defer end()
	gctx := gpusecmem.NewContext(sweepOptions())
	_, endRun := e.tr.start("runner.Run", id, sp)
	rep := runner.Run(context.Background(), gctx, exps, runner.Options{Jobs: jobs})
	endRun()

	_, endCheck := e.tr.start("render.check", id, sp)
	defer endCheck()
	for _, r := range rep.Runs {
		var err error
		if r.Error != "" {
			err = fmt.Errorf("sweep %d: run %s/%s failed: %s", n, r.Key, r.Benchmark, r.Error)
		}
		o.op(err)
	}
	for _, r := range rep.Results {
		var err error
		if r.Err != nil {
			err = fmt.Errorf("sweep %d: experiment %s failed: %v", n, r.Experiment.ID, r.Err)
		}
		o.op(err)
	}
	digest, err := renderDigest(rep)
	o.op(err)
	return sweepRep{rep: rep, gctx: gctx, digest: digest}
}

func runSweepLight(e *env) (*outcome, error) {
	o := newOutcome()
	root, endRoot := e.tr.start("sweep-light", "sweep-light", 0)
	defer endRoot()
	jobs := runtime.NumCPU()
	exps := sweepExperiments(e.seed)

	// Set-up: sweep planning (a fresh Context and PlanRuns). It is
	// timed three times before the first sweep and, in untraced runs,
	// once before every sweep, so its median samples the host over the
	// whole run rather than its first moments.
	var setups []float64
	var plan []gpusecmem.RunSpec
	setup := func() {
		_, endPlan := e.tr.start("plan", fmt.Sprintf("plan-%d", len(setups)), root)
		t0 := time.Now()
		plan = gpusecmem.NewContext(sweepOptions()).PlanRuns(exps)
		setups = append(setups, time.Since(t0).Seconds())
		endPlan()
	}
	for i := 0; i < 3; i++ {
		setup()
	}
	ids := make([]string, len(exps))
	for i, x := range exps {
		ids[i] = x.ID
	}
	o.info["experiments"] = ids
	o.info["benchmarks"] = sweepBenches
	o.info["cycles_per_run"] = sweepCycles
	o.info["jobs"] = jobs
	o.info["planned_runs"] = len(plan)

	var prof *profiler
	if e.traced() {
		prof = startProfiler()
	}

	var reps []sweepRep
	start := time.Now()
	for len(reps) < 2 || time.Since(start) < e.seconds {
		if !e.traced() && len(reps) > 0 {
			setup()
		}
		reps = append(reps, runOneSweep(e, o, exps, jobs, len(reps)+1, root))
	}
	o.set("setup_s", median(setups))
	o.set("runner.plan_s", median(setups))
	// Every repetition must render byte-identical output.
	for i, r := range reps[1:] {
		var err error
		if r.digest != reps[0].digest {
			err = fmt.Errorf("sweep %d rendered digest %s, sweep 1 rendered %s", i+2, r.digest, reps[0].digest)
		}
		o.op(err)
	}
	o.info["rendered_digest"] = reps[0].digest

	var walls []float64
	opMs := map[string][]float64{}
	for _, r := range reps {
		walls = append(walls, r.rep.Wall.Seconds())
		for _, run := range r.rep.Runs {
			opMs[run.Key] = append(opMs[run.Key], run.WallSeconds*1000)
		}
	}
	work := median(walls)
	last := reps[len(reps)-1].rep
	o.set("work_s", work)
	o.set("sweep_wall_s", work)
	o.set("op_p50_ms", caseQuantile(opMs, 0.5))
	o.set("op_p99_ms", caseQuantile(opMs, 0.99))
	o.set("sim_cycles_per_s", ratio(float64(last.TotalCycles()), work))
	o.info["sweeps"] = len(reps)
	o.info["executed_runs"] = last.ExecutedRuns
	if !e.traced() {
		return o, nil
	}

	w := simWork{reps: len(reps)}
	for _, r := range reps {
		// Memoized results: these lookups hit the Context's memo and
		// simulate nothing.
		for _, s := range r.gctx.PlanRuns(exps) {
			if res, err := r.gctx.RunE(context.Background(), s.Cfg, s.Benchmark); err == nil {
				w.add(res)
			}
		}
	}
	layers, err := prof.stop(w, filepath.Join(e.outDir, e.tag))
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		o.set(k, v)
	}
	// One more sweep with tracing and profiling off: the overhead is the
	// traced median against it.
	saved := e.tr
	e.tr = nil
	untraced := runOneSweep(e, o, exps, jobs, 0, 0).rep.Wall
	e.tr = saved
	o.set("trace.overhead_ratio", work/untraced.Seconds()-1)

	lookups := float64(last.CacheHits + last.CacheMisses)
	o.set("runner.memo_lookups", lookups)
	o.set("runner.memo_hit_ratio", ratio(float64(last.CacheHits), lookups))
	o.set("runner.runs_executed", float64(last.ExecutedRuns))
	var render, busy, longest float64
	for _, r := range last.Results {
		render += r.Elapsed.Seconds()
	}
	for _, r := range last.Runs {
		busy += r.WallSeconds
		longest = max(longest, r.WallSeconds)
	}
	o.set("runner.render_s", render)
	o.set("runner.pool_busy_ratio", ratio(busy, float64(last.Jobs)*last.Wall.Seconds()))
	o.set("runner.longest_run_s", longest)

	// Per-run set-up at this short horizon: the first planned runs,
	// timed call by call outside the runner.
	var newMs, runS, encMs []float64
	for i, s := range plan {
		if i == 40 {
			break
		}
		c := simCase{name: s.Benchmark, bench: s.Benchmark, cfg: s.Cfg}
		_, t, err := simulate(e, nil, c, root, fmt.Sprintf("setup-probe-%d", i))
		o.op(err)
		newMs = append(newMs, ms(t.newT))
		runS = append(runS, t.runT.Seconds())
		encMs = append(encMs, ms(t.encodeT))
	}
	o.set("sim.new_ms", median(newMs))
	o.set("sim.run_s", median(runS))
	o.set("sim.encode_ms", median(encMs))
	return o, nil
}
