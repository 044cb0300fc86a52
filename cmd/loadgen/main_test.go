package main

import (
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleKeySkewed is the -keys 1 -skew 1.2 edge case: the Zipf
// draw is built with imax = len(urls)-1 = 0, which must degrade to
// "always key 0" — not panic, not index out of range.
func TestSingleKeySkewed(t *testing.T) {
	var hits atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("X-Run-Source", "memory")
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	w := &workload{
		targets: []string{ts.URL},
		urls:    []string{"/api/run?bench=nw&cycles=1500"},
		skew:    1.2,
	}
	var s workerStats
	runWorker(ts.Client(), w, &s, rand.New(rand.NewSource(1)),
		time.Now().Add(100*time.Millisecond), 0)

	if s.requests == 0 || hits.Load() != s.requests {
		t.Fatalf("requests = %d, server saw %d", s.requests, hits.Load())
	}
	if s.errors != 0 {
		t.Fatalf("single-key run produced %d errors", s.errors)
	}
	if s.sources["memory"] != s.requests {
		t.Fatalf("sources = %v, want every request attributed", s.sources)
	}
}

// TestMergeStats pins the per-worker fold: counts and buckets sum,
// Max is the max of maxes, and label maps union — the merged
// histogram must answer exactly as if one worker saw everything.
func TestMergeStats(t *testing.T) {
	a := workerStats{sources: map[string]uint64{"memory": 2}, codes: map[int]uint64{200: 2}}
	a.requests, a.errors = 3, 1
	a.lat.Observe(100)
	a.lat.Observe(200)

	b := workerStats{sources: map[string]uint64{"memory": 1, "disk": 4}, codes: map[int]uint64{200: 4, 503: 1}}
	b.requests = 5
	b.lat.Observe(50)
	b.lat.Observe(4000)

	total := mergeStats([]workerStats{a, b})
	if total.requests != 8 || total.errors != 1 {
		t.Fatalf("requests/errors = %d/%d, want 8/1", total.requests, total.errors)
	}
	if total.lat.Count != 4 || total.lat.Sum != 4350 || total.lat.Max != 4000 {
		t.Fatalf("merged hist count/sum/max = %d/%d/%d",
			total.lat.Count, total.lat.Sum, total.lat.Max)
	}
	var bucketSum uint64
	for _, n := range total.lat.Buckets {
		bucketSum += n
	}
	if bucketSum != 4 {
		t.Fatalf("merged buckets hold %d observations, want 4", bucketSum)
	}
	if total.sources["memory"] != 3 || total.sources["disk"] != 4 {
		t.Fatalf("merged sources = %v", total.sources)
	}
	if total.codes[200] != 6 || total.codes[503] != 1 {
		t.Fatalf("merged codes = %v", total.codes)
	}

	empty := mergeStats(nil)
	if empty.requests != 0 || empty.lat.Count != 0 || len(empty.sources) != 0 {
		t.Fatalf("empty merge not zero: %+v", empty)
	}
}

// TestErrorAccountingContract pins how failures are tallied. Transport
// errors count as requests and errors but never enter the latency
// histogram (there is no response to time); HTTP-level failures (a
// 503) are errors too but DO carry a latency and a status code.
func TestErrorAccountingContract(t *testing.T) {
	// A listener that is closed immediately: every dial fails.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	w := &workload{targets: []string{dead}, urls: []string{"/api/run?bench=nw"}}
	var s workerStats
	runWorker(&http.Client{Timeout: time.Second}, w, &s, rand.New(rand.NewSource(1)),
		time.Now().Add(50*time.Millisecond), 0)
	if s.requests == 0 {
		t.Fatal("worker never attempted the dead target")
	}
	if s.errors != s.requests {
		t.Fatalf("errors = %d of %d requests, want all", s.errors, s.requests)
	}
	if s.lat.Count != 0 {
		t.Fatalf("transport errors leaked %d observations into the histogram", s.lat.Count)
	}
	if len(s.codes) != 0 {
		t.Fatalf("transport errors recorded status codes: %v", s.codes)
	}

	// HTTP-level failure: a live server answering 503.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	w2 := &workload{targets: []string{ts.URL}, urls: []string{"/api/run?bench=nw"}}
	var s2 workerStats
	runWorker(ts.Client(), w2, &s2, rand.New(rand.NewSource(1)),
		time.Now().Add(50*time.Millisecond), 0)
	if s2.requests == 0 || s2.errors != s2.requests {
		t.Fatalf("503s not all counted as errors: %d of %d", s2.errors, s2.requests)
	}
	if s2.lat.Count != s2.requests {
		t.Fatalf("503 latencies not observed: %d of %d", s2.lat.Count, s2.requests)
	}
	if s2.codes[http.StatusServiceUnavailable] != s2.requests {
		t.Fatalf("codes = %v, want %d 503s", s2.codes, s2.requests)
	}
	if len(s2.sources) != 0 {
		t.Fatalf("failed requests attributed to a serving tier: %v", s2.sources)
	}
}

// TestOpenLoopTimesFromDueTime drives one worker at a rate the server
// cannot keep up with. Each request takes `service`, and arrivals come
// every 5 ms, so the one queued arrival waits for the request ahead of
// it: timed from its due time its latency is about twice the service
// time, where timing from send would read about one. The arrivals that
// find the queue full must be counted, not discarded.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	w := &workload{targets: []string{ts.URL}, urls: []string{"/api/run?bench=nw"}, qps: 200}
	total, dropped, _ := drive(ts.Client(), w, 1, 600*time.Millisecond, 1)
	if total.requests < 3 || total.errors != 0 {
		t.Fatalf("requests/errors = %d/%d", total.requests, total.errors)
	}
	if dropped == 0 {
		t.Fatalf("%d requests at 200/s against a %v server dropped no arrival", total.requests, service)
	}
	if mean := time.Duration(total.lat.Mean()) * time.Microsecond; mean < service*3/2 {
		t.Fatalf("mean latency %v with a %v server: queueing wait not counted", mean, service)
	}
}
