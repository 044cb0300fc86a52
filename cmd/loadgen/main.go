// Command loadgen drives /api/run traffic against one secmemd — or a
// whole cluster of them — and reports throughput and latency, so the
// serving claims in EXPERIMENTS.md are measured, not asserted.
//
// The workload is a key mix: -keys distinct canonical run
// configurations (bench × cycles variations of one scheme), drawn per
// request from a Zipf distribution when -skew > 1 (a few hot keys,
// a long cold tail — the shape a memoizing cache actually sees) or
// uniformly otherwise, and sprayed round-robin across every -targets
// member the way a naive load balancer would. An optional warm pass
// simulates each key once before measurement starts, so the measured
// window exercises the cache tiers rather than the simulator.
//
// Pacing is closed-loop (every worker back-to-back) when -qps is 0,
// or open-loop at the target aggregate rate otherwise. An open-loop
// arrival carries the time it was due and its latency is timed from
// then, so a stall charges every request it delays. Up to -workers
// arrivals queue for a free worker; an arrival that finds the queue
// full is counted in the report's "dropped" field, never silently
// discarded. Latencies are folded into the shared log2-bucket
// histogram (internal/probe.Hist), per worker and merged at the end —
// no contention on the hot path.
//
// Usage:
//
//	loadgen -targets http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	        -duration 10s -workers 64 -keys 24 -skew 1.2 -out report.json
//
// The JSON report records the run parameters, throughput, latency
// quantiles, open-loop arrivals dropped, and the serving-tier mix
// (from X-Run-Source). The repository benchmark (secbench/) has its own
// open-loop serving workload; this command is the ad-hoc load source for a
// running fleet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"gpusecmem"
	"gpusecmem/internal/probe"
)

// workload is the request mix shared by every worker, read-only once
// drive has set gate and started them.
type workload struct {
	targets []string
	urls    []string // one /api/run URL per key
	skew    float64
	qps     float64
	gate    <-chan time.Time // open-loop arrivals, each its due time; nil = closed loop
}

// workerStats is one worker's private tally, merged after the run.
type workerStats struct {
	requests uint64
	errors   uint64
	lat      probe.Hist
	sources  map[string]uint64
	codes    map[int]uint64
}

// report is the JSON output schema.
type report struct {
	Schema     string   `json:"schema"`
	Targets    []string `json:"targets"`
	Workers    int      `json:"workers"`
	DurationS  float64  `json:"duration_s"`
	QPSTarget  float64  `json:"qps_target"`
	Keys       int      `json:"keys"`
	Skew       float64  `json:"skew"`
	Warmed     bool     `json:"warmed"`
	Requests   uint64   `json:"requests"`
	Errors     uint64   `json:"errors"`
	Dropped    uint64   `json:"dropped"`
	Throughput float64  `json:"throughput_rps"`

	LatencyUS struct {
		Mean float64 `json:"mean"`
		P50  uint64  `json:"p50"`
		P90  uint64  `json:"p90"`
		P99  uint64  `json:"p99"`
		Max  uint64  `json:"max"`
	} `json:"latency_us"`

	Sources map[string]uint64 `json:"sources"`
	Codes   map[string]uint64 `json:"codes"`
}

func main() {
	var (
		targets  = flag.String("targets", "http://localhost:8080", "comma-separated secmemd base URLs")
		duration = flag.Duration("duration", 10*time.Second, "measured window")
		workers  = flag.Int("workers", 32, "concurrent client workers")
		qps      = flag.Float64("qps", 0, "target aggregate request rate (0 = closed loop)")
		keys     = flag.Int("keys", 20, "distinct run configurations in the mix")
		skew     = flag.Float64("skew", 1.2, "Zipf s for key popularity (<=1 = uniform)")
		scheme   = flag.String("scheme", "ctr_mac_bmt", "scheme every key uses")
		cycles   = flag.Uint64("cycles", 1500, "base cycles; keys step up from here")
		warm     = flag.Bool("warm", true, "simulate every key once before measuring")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		out      = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()

	w := &workload{
		targets: strings.Split(*targets, ","),
		skew:    *skew,
		qps:     *qps,
	}
	benches := gpusecmem.Benchmarks()
	for i := 0; i < *keys; i++ {
		// bench × cycles variations: distinct canonical keys, same
		// scheme, bounded simulation cost.
		q := url.Values{
			"scheme": {*scheme},
			"bench":  {benches[i%len(benches)]},
			"cycles": {fmt.Sprint(*cycles + uint64(i/len(benches))*100)},
		}
		w.urls = append(w.urls, "/api/run?"+q.Encode())
	}

	client := &http.Client{Timeout: 5 * time.Minute}
	if *warm {
		if err := warmKeys(client, w); err != nil {
			fmt.Fprintln(os.Stderr, "warm:", err)
			os.Exit(1)
		}
	}

	total, dropped, elapsed := drive(client, w, *workers, *duration, *seed)

	rep := report{
		Schema:    "gpusecmem-loadgen/2",
		Targets:   w.targets,
		Workers:   *workers,
		DurationS: elapsed.Seconds(),
		QPSTarget: *qps,
		Keys:      *keys,
		Skew:      *skew,
		Warmed:    *warm,
		Requests:  total.requests,
		Errors:    total.errors,
		Dropped:   dropped,
		Sources:   total.sources,
		Codes:     map[string]uint64{},
	}
	if elapsed > 0 {
		rep.Throughput = float64(total.requests) / elapsed.Seconds()
	}
	rep.LatencyUS.Mean = total.lat.Mean()
	rep.LatencyUS.P50 = total.lat.Quantile(0.50)
	rep.LatencyUS.P90 = total.lat.Quantile(0.90)
	rep.LatencyUS.P99 = total.lat.Quantile(0.99)
	rep.LatencyUS.Max = total.lat.Max
	for code, n := range total.codes {
		rep.Codes[fmt.Sprint(code)] = n
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if total.errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d/%d requests failed\n", total.errors, total.requests)
		os.Exit(1)
	}
}

// drive runs the measured window: workers concurrent workers, paced
// open-loop by an arrival schedule when w.qps > 0. It returns the
// merged tally, the open-loop arrivals that found the queue full, and
// the wall time the window took.
func drive(client *http.Client, w *workload, workers int, duration time.Duration, seed int64) (total workerStats, dropped uint64, elapsed time.Duration) {
	stop := time.Now().Add(duration)
	var paced sync.WaitGroup
	if w.qps > 0 {
		// One queued arrival per worker: a deeper queue would only
		// lengthen a backlog that the dropped count already reports.
		gate := make(chan time.Time, workers)
		w.gate = gate
		paced.Add(1)
		go func() {
			defer paced.Done()
			dropped = pace(gate, w.qps, stop)
		}()
	}

	stats := make([]workerStats, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runWorker(client, w, &stats[i], rand.New(rand.NewSource(seed+int64(i))), stop, i)
		}(i)
	}
	wg.Wait()
	elapsed = time.Since(t0)
	paced.Wait()
	return mergeStats(stats), dropped, elapsed
}

// pace offers one arrival to gate every 1/qps seconds until stop, each
// carrying the time it was due. The schedule is fixed in advance, so a
// late wake-up catches up rather than thinning the rate. An arrival
// that finds gate full is counted and returned as dropped.
func pace(gate chan<- time.Time, qps float64, stop time.Time) (dropped uint64) {
	interval := time.Duration(float64(time.Second) / qps)
	for due := time.Now().Add(interval); due.Before(stop); due = due.Add(interval) {
		time.Sleep(time.Until(due))
		select {
		case gate <- due:
		default:
			dropped++
		}
	}
	return dropped
}

// mergeStats folds the per-worker tallies into one. Counts and
// histogram buckets sum; Max is the max of maxes, so the merged
// histogram answers quantiles exactly as if one worker had observed
// every latency.
func mergeStats(stats []workerStats) workerStats {
	total := workerStats{sources: map[string]uint64{}, codes: map[int]uint64{}}
	for i := range stats {
		s := &stats[i]
		total.requests += s.requests
		total.errors += s.errors
		total.lat.Count += s.lat.Count
		total.lat.Sum += s.lat.Sum
		if s.lat.Max > total.lat.Max {
			total.lat.Max = s.lat.Max
		}
		for b, n := range s.lat.Buckets {
			total.lat.Buckets[b] += n
		}
		for src, n := range s.sources {
			total.sources[src] += n
		}
		for code, n := range s.codes {
			total.codes[code] += n
		}
	}
	return total
}

// warmKeys simulates every key once, round-robin over the targets, so
// the measured window hits caches. In cluster mode each result lands
// at (or is write-through replicated to) its owner, warming the whole
// fleet regardless of which member served it.
func warmKeys(client *http.Client, w *workload) error {
	for i, u := range w.urls {
		target := w.targets[i%len(w.targets)]
		resp, err := client.Get(target + u)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s%s: status %d", target, u, resp.StatusCode)
		}
	}
	return nil
}

// runWorker issues requests until the deadline: take the next arrival
// (open loop) or go at once (closed loop), draw a key, pick the next
// target round-robin, time from the arrival's due time, tally.
func runWorker(client *http.Client, w *workload, s *workerStats, rng *rand.Rand, stop time.Time, offset int) {
	s.sources = map[string]uint64{}
	s.codes = map[int]uint64{}
	var zipf *rand.Zipf
	if w.skew > 1 {
		zipf = rand.NewZipf(rng, w.skew, 1, uint64(len(w.urls)-1))
	}
	for n := offset; time.Now().Before(stop); n++ {
		due := time.Now()
		if w.gate != nil {
			select {
			case due = <-w.gate:
			case <-time.After(time.Until(stop)):
				return
			}
		}
		var key int
		if zipf != nil {
			key = int(zipf.Uint64())
		} else {
			key = rng.Intn(len(w.urls))
		}
		target := w.targets[n%len(w.targets)]

		resp, err := client.Get(target + w.urls[key])
		lat := time.Since(due)
		s.requests++
		if err != nil {
			s.errors++
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.lat.Observe(uint64(lat.Microseconds()))
		s.codes[resp.StatusCode]++
		if resp.StatusCode != http.StatusOK {
			s.errors++
			continue
		}
		if src := resp.Header.Get("X-Run-Source"); src != "" {
			s.sources[src]++
		}
	}
}
