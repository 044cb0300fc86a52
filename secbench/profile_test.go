package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfBucketsLeafPackages(t *testing.T) {
	cases := map[string]string{
		"gpusecmem/internal/dram.(*Controller).Tick":                                              "dram",
		"gpusecmem/internal/sim.(*partition).tick":                                                "sim",
		"gpusecmem/internal/smcore.(*SM).Issue":                                                   "smcore",
		"gpusecmem/internal/icnt.(*DelayQueue[go.shape.struct {}]).PopReady":                      "icnt",
		"gpusecmem/internal/eventq.(*Heap[go.shape.struct { gpusecmem/internal/sim.a int }]).Pop": "eventq",
		"gpusecmem/internal/cache.(*Cache).Access":                                                "cache",
		"gpusecmem/internal/trace.(*gen).Next":                                                    "trace",
		"runtime.mapaccess2_fast64":                                                               "runtime_map",
		"internal/runtime/maps.(*Map).getWithKeySmall":                                            "runtime_map",
		"runtime.mallocgc":                      "runtime_gc",
		"runtime.scanobject":                    "runtime_gc",
		"runtime.futex":                         "other",
		"encoding/json.Marshal":                 "other",
		"gpusecmem/internal/shard.(*Pool).Join": "other",
		"":                                      "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestTopByLayerReadsFlatColumn(t *testing.T) {
	text := []byte(`Type: cpu
Showing nodes accounting for 460000000ns, 100% of 460000000ns total
      flat  flat%   sum%        cum   cum%
300000000ns 65.22% 65.22% 300000000ns 65.22%  gpusecmem/internal/dram.(*Controller).Tick
80000000ns 17.39% 82.61% 120000000ns 26.09%  runtime.mapassign_fast64
30000000ns  6.52% 89.13% 30000000ns  6.52%  internal/runtime/maps.ctrlGroup.matchH2 (inline)
20000000ns  4.35% 93.48% 20000000ns  4.35%  gpusecmem/internal/eventq.(*Heap[go.shape.struct { gpusecmem/internal/sim.a int }]).Pop
30000000ns  6.52%   100% 440000000ns 95.65%  main.main
         0     0%   100% 460000000ns   100%  gpusecmem/internal/sim.(*GPU).RunContext
`)
	got, err := topByLayer(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dram": 3e8, "runtime_map": 1.1e8, "eventq": 2e7, "other": 3e7}
	for _, l := range cpuLayers {
		if got[l] != want[l] {
			t.Errorf("layer %s: %v ns, want %v", l, got[l], want[l])
		}
	}
	if _, err := topByLayer([]byte("Type: cpu\n")); err == nil {
		t.Error("output without function rows was accepted")
	}
}

func TestCPUProfileDecodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byLayer, err := cpuByLayer(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(byLayer) != len(cpuLayers) {
		t.Fatalf("got layers %v, want all of %v", byLayer, cpuLayers)
	}
	if byLayer["other"] < float64(50*time.Millisecond) {
		t.Fatalf("spinning in package main should land in other: %v", byLayer)
	}
}

func TestBlockedShardSeconds(t *testing.T) {
	text := []byte(`--- contention:
cycles/second=1000000000
3000000000 10 @ 0x1 0x2
#	0x1	runtime.chanrecv1+0x1	/x/chan.go:1
#	0x2	gpusecmem/internal/shard.(*Pool).Join+0x2	/x/shard.go:2

1000000000 5 @ 0x3 0x4
#	0x3	runtime.chanrecv1+0x1	/x/chan.go:1
#	0x4	gpusecmem/internal/shard.NewPool.func1+0x4	/x/shard.go:4

7000000000 1 @ 0x5
#	0x5	sync.(*WaitGroup).Wait+0x5	/x/wg.go:5
`)
	join, park, err := blockedShardSeconds(text)
	if err != nil {
		t.Fatal(err)
	}
	if join != 3 || park != 1 {
		t.Fatalf("join %v park %v, want 3 and 1", join, park)
	}
}
