// Command secbench is the repository's benchmark. It runs one named
// workload against the simulator, the experiment runner or a two-node
// secmemd cluster, checks every output it gets, and prints one JSON
// result line: end-to-end metrics from an untraced run (-trace 0) or
// per-layer metrics from a traced run (-trace 1). See README.md.
//
//	bash secbench/run.sh --workload sim-memory-bound --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is what a workload gets: where the checkout is, the seed, how
// long to measure, and the tracer (nil in untraced runs).
type env struct {
	root    string
	outDir  string
	tag     string // <workload>-seed<n>-trace<t>, names the files a run writes
	seed    uint64
	seconds time.Duration
	tr      *tracer
}

func (e *env) traced() bool { return e.tr != nil }

// outcome is what a workload returns: how many operations it attempted
// and failed (with the first few failure messages), every value it
// measured by metric name, and the provenance of its inputs.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	values    map[string]float64
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, info: map[string]any{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// op counts one checked operation; a non-nil err is a failure.
func (o *outcome) op(err error) {
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, err.Error())
	}
}

type workload struct {
	why string
	run func(*env) (*outcome, error)
}

var workloads = map[string]workload{
	"sim-memory-bound": {"sequential engine on memory-intensive runs: partition dispatch, metadata caches/MSHRs and DRAM do the host work; the traced run adds the sharded engine", runSimMemoryBound},
	"sweep-light":      {"runner.Run over every experiment on light benchmarks at a short horizon: runner, memo and per-run set-up", runSweepLight},
	"serve-cluster":    {"two secmemd nodes on loopback under a seeded open-loop Zipf mix: admission, cache tiers, peers, forwarding", runServeCluster},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: sim-memory-bound, sweep-light, serve-cluster")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: untraced run printing end-to-end metrics")
	root := flag.String("root", ".", "repository checkout (testdata is read from it, .bench_build/secbench written into it)")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "secbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{
		root:    *root,
		outDir:  filepath.Join(*root, ".bench_build", "secbench"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "secbench: %v\n", err)
		return 1
	}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag)
	e.tag = tag

	o, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secbench: %s: %v\n", *name, err)
		return 1
	}
	o.set("peak_rss_mb", peakRSSMiB())
	o.set("error_ratio", ratio(float64(o.failed), float64(o.attempted)))
	if e.traced() {
		o.set("trace.spans", float64(e.tr.count()))
		spansPath := filepath.Join(e.outDir, tag+".spans.jsonl")
		if err := e.tr.write(spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "secbench: write spans: %v\n", err)
			return 1
		}
		o.info["spans_file"] = spansPath
	}
	for _, msg := range o.errs {
		fmt.Fprintf(os.Stderr, "secbench: check failed: %s\n", msg)
	}

	catalogue := e2eMetrics
	if e.traced() {
		catalogue = layerMetrics()
	}
	metrics := make(map[string]metric, len(catalogue))
	for _, d := range catalogue {
		metrics[d.Name] = newMetric(o.values[d.Name], d.Unit)
	}
	correct := o.failed == 0 && o.attempted > 0
	fullReport := map[string]any{
		"workload":   *name,
		"why":        wl.why,
		"provenance": provenance(e),
		"inputs":     o.info,
		"correct":    correct,
		"attempted":  o.attempted,
		"failed":     o.failed,
		"errors":     o.errs,
		"values":     withUnits(o.values),
	}
	reportJSON, err := json.Marshal(fullReport)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(e.outDir, tag+".report.json"), reportJSON, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "secbench: write report: %v\n", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "secbench: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s\n%s\n", reportJSON, line)
	if err := w.Flush(); err != nil {
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// withUnits labels every measured value with its unit for the report
// file; names outside both catalogues keep an empty unit.
func withUnits(values map[string]float64) map[string]metric {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics()...) {
		units[d.Name] = d.Unit
	}
	out := make(map[string]metric, len(values))
	for k, v := range values {
		out[k] = newMetric(v, units[k])
	}
	return out
}

// provenance records where a number came from.
func provenance(e *env) map[string]any {
	commit := "unknown"
	if abs, err := filepath.Abs(e.root); err == nil {
		// The ceiling keeps git from searching above the checkout.
		cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	host, _ := os.Hostname()
	return map[string]any{
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"traced":     e.traced(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"host":       host,
		"finished":   time.Now().UTC().Format(time.RFC3339),
	}
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
