package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Layers the CPU profile is bucketed into: the simulator packages by
// name, the Go runtime's map and GC/allocation work on their own, and
// everything else as "other".
var cpuLayers = []string{"sim", "smcore", "icnt", "cache", "dram", "eventq", "trace", "runtime_map", "runtime_gc", "other"}

// simPackages maps a leaf function's import path to its layer.
var simPackages = map[string]string{
	"gpusecmem/internal/sim":    "sim",
	"gpusecmem/internal/smcore": "smcore",
	"gpusecmem/internal/icnt":   "icnt",
	"gpusecmem/internal/cache":  "cache",
	"gpusecmem/internal/dram":   "dram",
	"gpusecmem/internal/eventq": "eventq",
	"gpusecmem/internal/trace":  "trace",
}

// gcPrefixes are runtime functions doing allocation or collection.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.nextFreeFast", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
	"runtime.(*mspan)", "runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.scanobject",
	"runtime.greyobject", "runtime.markroot", "runtime.scanblock", "runtime.scanstack",
	"runtime.findObject", "runtime.sweepone", "runtime.bgsweep", "runtime.(*gcWork)",
	"runtime.gcWriteBarrier", "runtime.wbBuf", "runtime.bulkBarrierPreWrite",
	"runtime.heapSetType", "runtime.memclrNoHeapPointers", "runtime.(*sweepLocked)",
	"runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.(*gcControllerState)", "runtime.(*gcBits)", "runtime.typePointers", "runtime.(*mspanHeapBits)",
}

// funcPackage returns the import path of a fully qualified Go
// function name, e.g. "gpusecmem/internal/dram.(*Controller).Tick" ->
// "gpusecmem/internal/dram". Type arguments of a generic function
// ("eventq.(*Heap[go.shape.struct { ... }]).Pop") may hold slashes of
// their own, so they are cut off first.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerOf buckets a CPU sample by its leaf function.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if l, ok := simPackages[pkg]; ok {
		return l
	}
	switch pkg {
	case "internal/runtime/maps":
		return "runtime_map"
	case "runtime":
		if strings.HasPrefix(fn, "runtime.map") {
			return "runtime_map"
		}
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime_gc"
			}
		}
	}
	return "other"
}

// cpuByLayer sums the flat (self) CPU nanoseconds of every function
// in the CPU profile at path into its layer. `go tool pprof -top`
// does the decoding; topByLayer reads its text.
func cpuByLayer(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-unit=ns", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return topByLayer(out)
}

// topRow is one function row of `pprof -top -unit=ns`:
// flat, flat%, sum%, cum, cum%, then the function name.
var topRow = regexp.MustCompile(`^\s*(\d+)(?:ns)?\s+\S+%\s+\S+%\s+\S+\s+\S+%\s+(.+?)(?: \(inline\))?$`)

func topByLayer(text []byte) (map[string]float64, error) {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := topRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: %w", err)
		}
		out[layerOf(m[2])] += ns
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof -top printed no function rows")
	}
	return out, nil
}

// blockedShardSeconds reads a debug=1 block profile and returns the
// seconds goroutines spent blocked inside internal/shard, split into
// join (the engine waiting at the window barrier for the slowest
// shard) and park (shard workers idle between windows).
func blockedShardSeconds(text []byte) (join, park float64, err error) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cyclesPerSec float64
	var cur float64
	inRecord := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			cyclesPerSec, err = strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("block profile: %w", err)
			}
		case strings.Contains(line, " @ "):
			f := strings.Fields(line)
			cur, _ = strconv.ParseFloat(f[0], 64)
			inRecord = true
		case inRecord && strings.HasPrefix(line, "#"):
			switch {
			case strings.Contains(line, "gpusecmem/internal/shard.(*Pool).Join"):
				join += cur
				inRecord = false
			case strings.Contains(line, "gpusecmem/internal/shard.NewPool"):
				park += cur
				inRecord = false
			}
		case line == "":
			inRecord = false
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if cyclesPerSec == 0 {
		return 0, 0, nil
	}
	return join / cyclesPerSec, park / cyclesPerSec, nil
}
