package runner

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gpusecmem"
	"gpusecmem/internal/report"
)

// renderReport flattens a sweep's tables to bytes the way
// cmd/experiments does, for byte-identity comparisons.
func renderReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, res := range rep.Results {
		if res.Err != nil {
			fmt.Fprintf(&buf, "# %s: FAILED: %v\n", res.Experiment.ID, res.Err)
			continue
		}
		fmt.Fprintf(&buf, "# %s\n", res.Experiment.Title)
		for _, tab := range res.Tables {
			if err := tab.WriteMarkdown(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func experiments(t *testing.T, ids ...string) []gpusecmem.Experiment {
	t.Helper()
	var out []gpusecmem.Experiment
	for _, id := range ids {
		e, ok := gpusecmem.ExperimentByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		out = append(out, e)
	}
	return out
}

func sweep(t *testing.T, opts gpusecmem.Options, jobs int, ids ...string) (*Report, []byte) {
	t.Helper()
	ctx := gpusecmem.NewContext(opts)
	rep := Run(context.Background(), ctx, experiments(t, ids...), Options{Jobs: jobs})
	return rep, renderReport(t, rep)
}

// TestDeterminismAcrossJobs is the core contract: output bytes do not
// depend on the worker count.
func TestDeterminismAcrossJobs(t *testing.T) {
	opts := gpusecmem.Options{Cycles: 1200, Benchmarks: []string{"nw", "fdtd2d"}}
	ids := []string{"table1", "fig8", "fig16", "fig4"}

	rep1, out1 := sweep(t, opts, 1, ids...)
	rep8, out8 := sweep(t, opts, 8, ids...)

	if !bytes.Equal(out1, out8) {
		t.Fatalf("output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", out1, out8)
	}
	if rep1.PlannedRuns != rep8.PlannedRuns || rep1.ExecutedRuns != rep8.ExecutedRuns {
		t.Fatalf("run counts differ: %d/%d vs %d/%d",
			rep1.PlannedRuns, rep1.ExecutedRuns, rep8.PlannedRuns, rep8.ExecutedRuns)
	}
	if rep8.FailedRuns != 0 || rep8.FailedExperiments() != 0 {
		t.Fatalf("unexpected failures: %d runs, %d experiments", rep8.FailedRuns, rep8.FailedExperiments())
	}
	if rep8.Jobs != 8 {
		t.Fatalf("jobs = %d", rep8.Jobs)
	}
}

// TestFullCatalogueDeterminism runs the entire registry (-exp all) at
// -jobs 1 and -jobs 8 on a reduced cycle budget and asserts identical
// bytes — the satellite determinism requirement.
func TestFullCatalogueDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue sweep")
	}
	opts := gpusecmem.Options{Cycles: 800, Benchmarks: []string{"fdtd2d", "nw"}}
	all := gpusecmem.Experiments()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	_, out1 := sweep(t, opts, 1, ids...)
	rep8, out8 := sweep(t, opts, 8, ids...)
	if !bytes.Equal(out1, out8) {
		t.Fatal("-exp all output differs between -jobs 1 and -jobs 8")
	}
	if rep8.FailedExperiments() != 0 {
		t.Fatalf("%d experiments failed", rep8.FailedExperiments())
	}
	if rep8.CacheMisses == 0 || rep8.ExecutedRuns != rep8.PlannedRuns {
		t.Fatalf("sweep shape off: %+v", rep8)
	}
}

// TestFailedRunContinuesSweep puts a nonexistent benchmark in the
// options: every simulation-backed experiment fails with a *RunError
// naming its config, static experiments still render, and the runner
// returns instead of panicking.
func TestFailedRunContinuesSweep(t *testing.T) {
	opts := gpusecmem.Options{Cycles: 800, Benchmarks: []string{"nw", "definitely-not-a-benchmark"}}
	ctx := gpusecmem.NewContext(opts)
	rep := Run(context.Background(), ctx, experiments(t, "table1", "fig8", "table7", "fig16"), Options{Jobs: 4})

	byID := map[string]ExperimentResult{}
	for _, res := range rep.Results {
		byID[res.Experiment.ID] = res
	}
	for _, id := range []string{"table1", "table7"} {
		if byID[id].Err != nil {
			t.Errorf("static experiment %s failed: %v", id, byID[id].Err)
		}
	}
	for _, id := range []string{"fig8", "fig16"} {
		res := byID[id]
		if res.Err == nil {
			t.Errorf("%s should have failed on the bad benchmark", id)
			continue
		}
		re, ok := res.Err.(*gpusecmem.RunError)
		if !ok {
			t.Errorf("%s error is %T, want *RunError", id, res.Err)
			continue
		}
		if re.Benchmark != "definitely-not-a-benchmark" {
			t.Errorf("%s failed on %q", id, re.Benchmark)
		}
	}
	if rep.FailedRuns == 0 || rep.FailedExperiments() != 2 {
		t.Fatalf("failure accounting: %d runs, %d experiments", rep.FailedRuns, rep.FailedExperiments())
	}
}

// TestStatsOutput checks the -stats-out payload: one record per run,
// valid config JSON, throughput populated, stable key digests.
func TestStatsOutput(t *testing.T) {
	opts := gpusecmem.Options{Cycles: 800, Benchmarks: []string{"nw"}}
	ctx := gpusecmem.NewContext(opts)
	rep := Run(context.Background(), ctx, experiments(t, "fig8"), Options{Jobs: 2})

	if len(rep.Runs) != rep.ExecutedRuns || len(rep.Runs) == 0 {
		t.Fatalf("%d run records for %d executed runs", len(rep.Runs), rep.ExecutedRuns)
	}
	for _, r := range rep.Runs {
		if r.Benchmark != "nw" || r.Cycles == 0 || r.WallSeconds <= 0 || r.CyclesPerSec <= 0 {
			t.Fatalf("incomplete run record: %+v", r)
		}
		if len(r.Key) != 12 {
			t.Fatalf("key digest %q", r.Key)
		}
		if !bytes.HasPrefix(r.Config, []byte("{")) {
			t.Fatalf("config not JSON: %s", r.Config[:20])
		}
	}

	if want := uint64(len(rep.Runs)) * 800; rep.TotalCycles() != want {
		t.Fatalf("TotalCycles = %d, want %d", rep.TotalCycles(), want)
	}
	if rep.AggregateCyclesPerSec() <= 0 {
		t.Fatalf("AggregateCyclesPerSec = %f", rep.AggregateCyclesPerSec())
	}

	var buf bytes.Buffer
	if err := rep.WriteStats(&buf, "experiments -exp fig8"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"command": "experiments -exp fig8"`, `"planned_runs"`, `"cycles_per_sec"`,
		`"cache_hits"`, `"total_cycles"`, `"aggregate_cycles_per_sec"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats JSON missing %s:\n%s", want, out)
		}
	}
}

// TestStatsRenderTimeRun covers a run the planner never sees: the
// experiment bails on the planning placeholder before asking for its
// second run, so that run simulates at render time. Its record must
// follow the planned ones and carry a null config.
func TestStatsRenderTimeRun(t *testing.T) {
	bails := gpusecmem.Experiment{
		ID:    "bails-on-placeholder",
		Title: "bails on placeholder data while planning",
		Run: func(c *gpusecmem.Context) []*report.Table {
			if r := c.Run(gpusecmem.BaselineConfig(), "nw"); r.Cycles <= 1 {
				return nil
			}
			c.Run(gpusecmem.SecureMemConfig(), "nw")
			return nil
		},
	}
	ctx := gpusecmem.NewContext(gpusecmem.Options{Cycles: 800, Benchmarks: []string{"nw"}})
	rep := Run(context.Background(), ctx, []gpusecmem.Experiment{bails}, Options{Jobs: 2})

	if rep.PlannedRuns != 1 || rep.ExecutedRuns != 2 || len(rep.Runs) != 2 {
		t.Fatalf("planned %d, executed %d, %d records; want 1, 2, 2",
			rep.PlannedRuns, rep.ExecutedRuns, len(rep.Runs))
	}
	planned, late := rep.Runs[0], rep.Runs[1]
	if !bytes.HasPrefix(planned.Config, []byte("{")) {
		t.Fatalf("planned run config not JSON: %s", planned.Config)
	}
	if string(late.Config) != "null" || late.Benchmark != "nw" || late.Cycles != 800 {
		t.Fatalf("render-time record: %+v", late)
	}
	if late.Key == planned.Key {
		t.Fatalf("render-time record repeats the planned key %s", late.Key)
	}

	var buf bytes.Buffer
	if err := rep.WriteStats(&buf, "render-time"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"config": null`) {
		t.Fatalf("stats JSON lacks the null config:\n%s", buf.String())
	}
}

// TestProgressTicker exercises the -progress path end to end.
func TestProgressTicker(t *testing.T) {
	var buf bytes.Buffer
	ctx := gpusecmem.NewContext(gpusecmem.Options{Cycles: 800, Benchmarks: []string{"nw"}})
	Run(context.Background(), ctx, experiments(t, "fig8"), Options{
		Jobs:             2,
		Progress:         true,
		ProgressOut:      &buf,
		ProgressInterval: time.Millisecond,
	})
	if !strings.Contains(buf.String(), "runs done") {
		t.Fatalf("no progress lines:\n%s", buf.String())
	}
}
