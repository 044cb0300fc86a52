package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gpusecmem/internal/faults"
	"gpusecmem/internal/probe"
	"gpusecmem/internal/trace"
)

// runSharded runs cfg/bench with the given shard count and reports the
// result plus how many parallel barrier windows executed (0 = the
// sequential engine ran).
func runSharded(t *testing.T, cfg Config, bench string, shards int) (*Result, error, uint64) {
	t.Helper()
	cfg.Shards = shards
	g, err := New(cfg, trace.MustNew(bench))
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := g.Run()
	return res, rerr, g.parallelWindows
}

// TestParallelIdentity: the barrier-synchronized engine must produce
// byte-identical results to the sequential engine for every shard
// count, including counts that do not divide the partition count and
// the one-partition-per-shard extreme.
func TestParallelIdentity(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		bench string
	}{
		{"securemem/fdtd2d", SecureMem(), "fdtd2d"},
		{"securemem/heartwall", SecureMem(), "heartwall"},
		{"baseline/nw", Baseline(), "nw"},
		{"direct_mac_mt/lbm", DirectMem(60, true, true), "lbm"},
		{"securemem_knobs/lbm", knobBranches(), "lbm"},
	}
	shardCounts := []int{2, 4, 5, 8, 32}
	for _, tc := range cases {
		tc.cfg.MaxCycles = testCycles
		seq, err, seqWindows := runSharded(t, tc.cfg, tc.bench, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seqWindows != 0 {
			t.Fatalf("%s: sequential run executed %d parallel windows", tc.name, seqWindows)
		}
		seqJSON, _ := json.Marshal(seq)
		for _, s := range shardCounts {
			par, err, windows := runSharded(t, tc.cfg, tc.bench, s)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, s, err)
			}
			if windows == 0 {
				t.Fatalf("%s shards=%d: parallel engine did not run", tc.name, s)
			}
			parJSON, _ := json.Marshal(par)
			if string(parJSON) != string(seqJSON) {
				t.Errorf("%s shards=%d: result differs from sequential engine\nseq: %s\npar: %s",
					tc.name, s, seqJSON, parJSON)
			}
		}
	}
}

// TestParallelFallbacks: configurations the parallel engine cannot
// reproduce exactly must silently run the sequential engine — and
// still produce results identical to an explicitly sequential run.
func TestParallelFallbacks(t *testing.T) {
	base := SecureMem()
	base.MaxCycles = 3000
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"audit", func(c *Config) { c.Audit = true }},
		{"faults", func(c *Config) {
			c.Faults = &faults.Plan{Seed: 7, Rate: 0.01, Sites: faults.SiteDRAMData.Mask()}
		}},
		{"probe", func(c *Config) { c.Probe = &probe.Config{TimelineInterval: 500} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		seq, err, _ := runSharded(t, cfg, "fdtd2d", 0)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		par, err, windows := runSharded(t, cfg, "fdtd2d", 8)
		if err != nil {
			t.Fatalf("%s shards=8: %v", tc.name, err)
		}
		if windows != 0 {
			t.Errorf("%s: parallel engine ran despite the restriction (%d windows)", tc.name, windows)
		}
		sj, _ := json.Marshal(seq)
		pj, _ := json.Marshal(par)
		if string(sj) != string(pj) {
			t.Errorf("%s: fallback result differs from sequential run", tc.name)
		}
	}
}

// TestParallelWatchdogBoundary: a run that stalls must fire the
// watchdog at the identical cycle with the identical diagnostic state
// under both engines. The aggressive threshold turns the first
// all-warps-blocked DRAM stretch into a "stall", exercising the
// barrier's exact landing on the fire cycle.
func TestParallelWatchdogBoundary(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 200000
	// Empirically below the longest quiet stretch of this workload, so
	// the watchdog fires mid-run under both engines.
	cfg.WatchdogCycles = watchdogProbeThreshold(t, cfg, "fdtd2d")

	_, seqErr, _ := runSharded(t, cfg, "fdtd2d", 0)
	_, parErr, windows := runSharded(t, cfg, "fdtd2d", 8)
	var seqStall, parStall *StallError
	if !errors.As(seqErr, &seqStall) {
		t.Fatalf("sequential run: want StallError, got %v", seqErr)
	}
	if !errors.As(parErr, &parStall) {
		t.Fatalf("parallel run: want StallError, got %v", parErr)
	}
	if windows == 0 {
		t.Fatal("parallel engine did not run")
	}
	if seqStall.Cycle != parStall.Cycle || seqStall.LastProgressCycle != parStall.LastProgressCycle {
		t.Errorf("watchdog timing differs: sequential fired at %d (progress %d), parallel at %d (progress %d)",
			seqStall.Cycle, seqStall.LastProgressCycle, parStall.Cycle, parStall.LastProgressCycle)
	}
	if seqStall.Dump != parStall.Dump {
		t.Errorf("stall dumps differ:\nseq:\n%s\npar:\n%s", seqStall.Dump, parStall.Dump)
	}
}

// watchdogProbeThreshold finds a threshold that stalls cfg/bench: the
// longest progress gap of an unrestricted run, halved. Skips the test
// if the workload never goes quiet long enough to fake a stall.
func watchdogProbeThreshold(t *testing.T, cfg Config, bench string) uint64 {
	t.Helper()
	probeCfg := cfg
	probeCfg.WatchdogCycles = 0
	probeCfg.Shards = 0
	g, err := New(probeCfg, trace.MustNew(bench))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	gap := g.maxProgressGap
	if gap < 8 {
		t.Skipf("workload never idles (max progress gap %d); cannot provoke a stall", gap)
	}
	return gap / 2
}

// TestParallelBarrierMergeRace is the -race stress: many concurrent
// sharded runs hammer fork/join, staging, and the canonical merge
// while asserting determinism against a reference digest.
func TestParallelBarrierMergeRace(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 2500
	ref, err, _ := runSharded(t, cfg, "fdtd2d", 0)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		shards := []int{2, 3, 8}[i%3]
		wg.Add(1)
		go func(shards, i int) {
			defer wg.Done()
			c := cfg
			c.Shards = shards
			g, err := New(c, trace.MustNew("fdtd2d"))
			if err != nil {
				errs <- err
				return
			}
			res, err := g.Run()
			if err != nil {
				errs <- err
				return
			}
			if g.parallelWindows == 0 {
				errs <- fmt.Errorf("run %d: parallel engine did not run", i)
				return
			}
			j, _ := json.Marshal(res)
			if string(j) != string(refJSON) {
				errs <- fmt.Errorf("run %d (shards=%d): nondeterministic result", i, shards)
			}
		}(shards, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestValidateShards: invalid shard counts must be rejected with
// actionable errors before simulation, not panic at runtime.
func TestValidateShards(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"zero (sequential)", func(c *Config) { c.Shards = 0 }, true},
		{"one (sequential)", func(c *Config) { c.Shards = 1 }, true},
		{"equal to partitions", func(c *Config) { c.Shards = c.NumPartitions }, true},
		{"non-dividing", func(c *Config) { c.Shards = 5 }, true},
		{"negative", func(c *Config) { c.Shards = -1 }, false},
		{"more shards than partitions", func(c *Config) { c.Shards = c.NumPartitions + 1 }, false},
		{"zero icnt latency", func(c *Config) { c.Shards = 4; c.IcntLatency = 0 }, false},
	}
	for _, tc := range cases {
		cfg := Baseline()
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate accepted an invalid shard setup", tc.name)
		}
	}
}
