package main

import (
	"fmt"
	"math"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetric(v float64, unit string) metric { return metric{Value: finite(v), Unit: unit} }

// finite keeps a value JSON-encodable: a latency quantile that a failed
// request pushed to +Inf is reported as the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

type metricDef struct {
	Name string
	Unit string
}

// e2eMetrics are printed by every untraced run (BENCHMARK.json
// "end_to_end"). Each workload defines its own unit of work and
// operation; README.md maps them:
//
//	work_s     median wall time of one repetition of the unit of work
//	op_p50_ms  median latency of one operation
//
// The 99th percentile (op_p99_ms) is a per-layer metric: on
// serve-cluster it is set by cold simulations, whose latency swings by
// about a quarter from run to run on a shared 2-vCPU host, too wide
// for a regression bound.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"work_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// modelBenches are the benchmarks of the sim batch, reported one by
// one in the exact model counts.
var modelBenches = []string{"fdtd2d", "lbm", "streamcluster"}

var modelStats = []string{"ipc", "dram_req_per_kcycle", "meta_req_share", "row_hit_ratio", "l2_miss_ratio", "meta_miss_ratio", "meta_secondary_ratio"}

// serveTiers are the X-Run-Source values a /api/run response carries.
// "resumed" is left out: it needs a checkpoint store, which the
// benchmark's daemons do not have, so it could only ever read 0.
var serveTiers = []string{"memory", "disk", "peer", "simulated"}

// ladderRates are the fixed open-loop rates (req/s) the traced
// serve-cluster run steps through to find serve_max_rps.
var ladderRates = []int{100, 200, 400, 800, 1600}

// layerMetrics are printed by every traced run (BENCHMARK.json
// "per_layer"). A layer a workload does not exercise reads 0.
func layerMetrics() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit}) }
	add("op_p99_ms", "ms")
	for _, l := range cpuLayers {
		add("host_ns_per_cycle."+l, "ns/cycle")
	}
	add("host_ns_per_dram_req", "ns")
	add("host_ns_per_l2_access", "ns")
	add("go.allocs_per_kcycle", "1/kcycle")
	add("go.alloc_bytes_per_kcycle", "B/kcycle")
	add("go.gc_cycles", "count/rep")
	add("sim.new_ms", "ms")
	add("sim.run_s", "s")
	add("sim.encode_ms", "ms")
	add("sim_cycles_per_s", "cycles/s")
	add("shard.block_s_per_kcycle", "s/kcycle")
	add("shard.park_s_per_kcycle", "s/kcycle")
	add("shard.speedup", "ratio")
	add("shard.seq_batch_s", "s")
	add("shard.sharded_batch_s", "s")
	for _, s := range modelStats {
		unit := "ratio"
		switch s {
		case "ipc":
			unit = "instr/cycle"
		case "dram_req_per_kcycle":
			unit = "1/kcycle"
		}
		for _, b := range modelBenches {
			add(fmt.Sprintf("model.%s.%s", s, b), unit)
		}
	}
	add("runner.memo_hit_ratio", "ratio")
	add("runner.memo_lookups", "count")
	add("runner.runs_executed", "count")
	add("runner.plan_s", "s")
	add("runner.render_s", "s")
	add("runner.pool_busy_ratio", "ratio")
	add("runner.longest_run_s", "s")
	add("sweep_wall_s", "s")
	for _, t := range serveTiers {
		add("serve.share."+t, "ratio")
	}
	add("serve.share_base", "count")
	for _, t := range serveTiers {
		add("serve."+t+".p50_ms", "ms")
		add("serve."+t+".p99_ms", "ms")
	}
	add("serve_p50_ms", "ms")
	add("serve_p90_ms", "ms")
	add("serve_p99_ms", "ms")
	add("serve.samples", "count")
	add("serve.tail_pct", "%")
	add("serve.gen_late_p99_ms", "ms")
	for _, r := range ladderRates {
		add(fmt.Sprintf("serve.rate_%d.p50_ms", r), "ms")
		add(fmt.Sprintf("serve.rate_%d.p99_ms", r), "ms")
	}
	add("serve_max_rps", "req/s")
	add("serve.warm_compute_s", "s")
	add("serve.warm_store_s", "s")
	add("daemon.rejected", "count")
	add("daemon.coalesced", "count")
	add("daemon.memcache_evictions", "count")
	add("result.json_encode_us", "us")
	add("resultcache.get_raw_us", "us")
	add("resultcache.decode_envelope_us", "us")
	add("resultcache.put_raw_us", "us")
	add("resultcache.encode_envelope_us", "us")
	add("resultcache.puts", "count")
	add("resultcache.errors", "count")
	add("cluster.forwards", "count")
	add("cluster.forward_fallbacks", "count")
	add("cluster.peer_fetch_hit_ratio", "ratio")
	add("cluster.peer_fetch_attempts", "count")
	add("cluster.owner_us", "us")
	add("error_ratio", "ratio")
	add("trace.overhead_ratio", "ratio")
	add("trace.spans", "count")
	return out
}
