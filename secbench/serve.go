package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpusecmem"
	"gpusecmem/internal/cluster"
	"gpusecmem/internal/daemon"
	"gpusecmem/internal/resultcache"
	"gpusecmem/internal/telemetry"
)

// serve-cluster traffic. The warm key space (11 schemes x 5 light
// benchmarks x 7 short horizons = 385 keys) is six times each node's
// in-memory LRU, set explicitly with daemon.Config.MemCacheEntries.
// Zipf popularity makes a hot head served from memory (p50), a warm
// body served from the owner's disk or, on the other node, from the
// owner over the peer tier (p90), and a cold tail of never-seen keys
// plus their near-simultaneous duplicates that is simulated or
// forwarded (p99). The mix constants are in schedule.go; README.md
// gives the basis of each.
var (
	warmSchemes = []string{"baseline", "ctr", "ctr_bmt", "ctr_mac_bmt", "secure_nomshr", "direct", "direct_mac", "direct_mac_mt", "unified", "scattered", "sw_crypto"}
	warmBenches = []string{"nw", "heartwall", "backprop", "lavaMD", "b+tree"}
	warmCycles  = []uint64{300, 350, 400, 450, 500, 550, 600}
)

const (
	memCacheEntries = 64
	// serveLimit is the fixed p99 latency limit a ladder rate must meet
	// to count towards serve_max_rps. A cold simulation alone takes
	// 45-130 ms, so the limit sits above that band: the ladder finds
	// where queueing starts, not the jitter of cold simulations.
	serveLimit = 250 * time.Millisecond
	// nominalRate is the req/s of the measured phase, an eighth of the
	// serve_max_rps (800) the traced run measures on a 2-vCPU host, so
	// the nominal phase runs well below saturation.
	nominalRate = 100
	ladderStep  = 2 * time.Second
)

func warmKeys() []runKey {
	var out []runKey
	for _, s := range warmSchemes {
		for _, b := range warmBenches {
			for _, c := range warmCycles {
				out = append(out, runKey{s, b, c})
			}
		}
	}
	return out
}

// canonical is one key's daemon cache key and the bytes of its Result
// JSON, against which every response is checked.
type canonical struct {
	key      string
	envelope []byte
	result   []byte
	res      *gpusecmem.Result
}

// computeWarm simulates the warm key space once, in-process, on nproc
// goroutines.
func computeWarm(keys []runKey) (map[runKey]*canonical, error) {
	out := make(map[runKey]*canonical, len(keys))
	var mu sync.Mutex
	var firstErr error
	work := make(chan runKey)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				c, err := canonicalFor(k)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[k] = c
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

func canonicalFor(k runKey) (*canonical, error) {
	cfg, err := gpusecmem.ConfigForScheme(k.Scheme)
	if err != nil {
		return nil, err
	}
	cfg.MaxCycles = k.Cycles
	res, err := gpusecmem.Simulate(cfg, k.Bench)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k, err)
	}
	key := gpusecmem.RunKey(cfg, k.Bench)
	env, err := resultcache.EncodeEnvelope(key, res)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return &canonical{key: key, envelope: env, result: raw, res: res}, nil
}

// node is one in-process secmemd behind a real loopback listener that
// speaks HTTP/1.1 and unencrypted HTTP/2.
type node struct {
	url   string
	srv   *http.Server
	d     *daemon.Server
	store *resultcache.Cache
	cl    *cluster.Cluster
	done  chan struct{}
}

type clusterPair struct {
	nodes  [2]*node
	cancel context.CancelFunc
}

func h2cProtocols() *http.Protocols {
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return p
}

// bootCluster starts two clustered daemons with persistent stores
// under dir, sized so the simulation slots of both nodes together are
// at most nproc. An empty addrs[i] picks a free loopback port; passing
// a previous pair's addresses reproduces its key placement.
func bootCluster(dir string, addrs [2]string) (*clusterPair, error) {
	var lns [2]net.Listener
	var urls [2]string
	for i := range lns {
		addr := addrs[i]
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cp := &clusterPair{cancel: cancel}
	workers := max(1, runtime.NumCPU()/2)
	for i, ln := range lns {
		n, err := startNode(ctx, ln, urls[i], urls[1-i], filepath.Join(dir, fmt.Sprintf("node%d", i)), workers)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			cp.close()
			return nil, err
		}
		cp.nodes[i] = n
	}
	return cp, nil
}

// startNode serves one clustered daemon on ln; its health probes stop
// with ctx.
func startNode(ctx context.Context, ln net.Listener, self, peer, storeDir string, workers int) (*node, error) {
	store, err := resultcache.Open(storeDir)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{Self: self, Peers: []string{peer}, Timeout: 30 * time.Second, ProbeEvery: time.Second})
	if err != nil {
		return nil, err
	}
	d := daemon.New(daemon.Config{
		Workers:         workers,
		QueueDepth:      1024,
		Cache:           store,
		MemCacheEntries: memCacheEntries,
		Cluster:         cl,
	})
	n := &node{url: self, d: d, store: store, cl: cl, done: make(chan struct{})}
	n.srv = &http.Server{Handler: d.Handler(), Protocols: h2cProtocols()}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln)
	}()
	cl.Start(ctx)
	return n, nil
}

// close shuts both nodes down and waits for their serve loops to
// return. Their stores stay on disk.
func (cp *clusterPair) close() {
	cp.cancel()
	for _, n := range cp.nodes {
		if n == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			n.d.Abort()
			n.srv.Close()
		}
		cancel()
		<-n.done
	}
}

// store installs the warm key space in each key's owner's store.
func (cp *clusterPair) store(warm map[runKey]*canonical) error {
	for k, w := range warm {
		owner, _ := cp.nodes[0].cl.Owner(w.key)
		for _, n := range cp.nodes {
			if n.url == owner {
				if err := n.store.PutRaw(w.key, w.envelope); err != nil {
					return fmt.Errorf("store %s: %w", k, err)
				}
			}
		}
	}
	return nil
}

// warmMemory pulls the hot head into both nodes' memory tiers over
// HTTP, checking every reply into o.
func (cp *clusterPair) warmMemory(c *client, hot []runKey, chk *checker, o *outcome) {
	var reqs []item
	for _, k := range hot {
		reqs = append(reqs, item{Node: 0, Key: k}, item{Node: 1, Key: k})
	}
	for _, s := range c.closedLoop(cp, reqs) {
		o.op(chk.check(s))
	}
}

// client is the load generator's HTTP side: one HTTP/2 (h2c)
// connection per node, so at most two connections multiplex every
// concurrent request.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	tr := &http.Transport{Protocols: p, MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr}
}

// sample is one request's outcome. Latency runs from when the request
// was due, not from when it was sent.
type sample struct {
	it      item
	latency time.Duration
	late    time.Duration
	status  int
	source  string
	result  []byte
	err     error
}

type runBody struct {
	Result json.RawMessage `json:"result"`
}

func (c *client) get(cp *clusterPair, it item, traceID string) sample {
	s := sample{it: it}
	req, err := http.NewRequest(http.MethodGet, cp.nodes[it.Node].url+"/api/run?"+it.Key.query(), nil)
	if err != nil {
		s.err = err
		return s
	}
	if traceID != "" {
		req.Header.Set(telemetry.TraceHeader, traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	s.status = resp.StatusCode
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("%s on node %d: status %d: %s", it.Key, it.Node, resp.StatusCode, bytes.TrimSpace(body))
		return s
	}
	var rb runBody
	if err := json.Unmarshal(body, &rb); err != nil {
		s.err = fmt.Errorf("%s: decode response: %w", it.Key, err)
		return s
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rb.Result); err != nil {
		s.err = fmt.Errorf("%s: compact result: %w", it.Key, err)
		return s
	}
	s.source = resp.Header.Get("X-Run-Source")
	s.result = compact.Bytes()
	return s
}

// closedLoop sends reqs from nproc goroutines, each waiting for its
// reply before the next send.
func (c *client) closedLoop(cp *clusterPair, reqs []item) []sample {
	out := make([]sample, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				out[i] = c.get(cp, reqs[i], "")
				out[i].latency = time.Since(t0)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// openLoop sends each scheduled request when it is due, whatever the
// state of earlier ones, and times it from its due time, so a stall
// shows in every request it delays. in-flight requests are bounded
// only to keep a wedged server from exhausting memory; hitting the
// bound delays sends, which the due-time clock still charges.
//
// Each reply is checked as it arrives (its error, if any, replaces the
// sample's) and its bytes are then dropped, so the generator's memory
// does not grow with the run.
func (c *client) openLoop(e *env, cp *clusterPair, sched []item, chk *checker, phase string, parent uint64) []sample {
	out := make([]sample, len(sched))
	sem := make(chan struct{}, 4096)
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, it := range sched {
		due := start.Add(it.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, it item, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			id := ""
			if e.traced() {
				// Hex, so the daemon accepts it as the request's trace ID.
				id = fmt.Sprintf("%s%08x", sha256Hex([]byte(phase))[:8], i)
			}
			_, end := e.tr.start("http.request", id, parent)
			sent := time.Now()
			s := c.get(cp, it, id)
			end()
			s.latency = time.Since(due)
			s.late = sent.Sub(due)
			s.err = chk.check(s)
			s.result = nil
			out[i] = s
		}(i, it, due)
	}
	wg.Wait()
	return out
}

// checker holds the canonical Result bytes per key: the precomputed
// ones for warm keys, the first served ones for cold keys. A response
// with other bytes for the same key, whichever tier served it, fails.
type checker struct {
	mu   sync.Mutex
	want map[runKey][]byte
}

func newChecker(warm map[runKey]*canonical) *checker {
	c := &checker{want: make(map[runKey][]byte, len(warm))}
	for k, w := range warm {
		c.want[k] = w.result
	}
	return c
}

func (c *checker) check(s sample) error {
	if s.err != nil {
		return s.err
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("%s: status %d", s.it.Key, s.status)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := c.want[s.it.Key]
	if !ok {
		c.want[s.it.Key] = s.result
		return nil
	}
	if !bytes.Equal(want, s.result) {
		return fmt.Errorf("%s: result bytes from tier %q differ from the canonical ones (sha256 %s, want %s)",
			s.it.Key, s.source, sha256Hex(s.result)[:16], sha256Hex(want)[:16])
	}
	return nil
}

// latencies returns the samples' latencies in ms; a failed request
// counts as +Inf, missing any limit.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.err != nil || s.status != http.StatusOK {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ms(s.latency)
	}
	return out
}

// scrapeMetrics reads a node's /metrics exposition into series ->
// value (series keep their label text, e.g.
// `gpusecmem_peer_requests_total{op="fetch",outcome="hit"}`).
func (c *client) scrapeMetrics(n *node) (map[string]float64, error) {
	resp, err := c.hc.Get(n.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func runServeCluster(e *env) (*outcome, error) {
	o := newOutcome()
	root, endRoot := e.tr.start("serve-cluster", "serve-cluster", 0)
	defer endRoot()

	keys := warmKeys()
	t0 := time.Now()
	warm, err := computeWarm(keys)
	if err != nil {
		return nil, err
	}
	o.set("serve.warm_compute_s", time.Since(t0).Seconds())
	hot := popularityOrder(e.seed, keys)
	chk := newChecker(warm)
	c := newClient()
	// Closing the client's idle HTTP/2 connections first lets each
	// server shut down at once instead of after its GOAWAY grace period.
	closePair := func(cp *clusterPair) {
		c.tr.CloseIdleConnections()
		cp.close()
	}

	// Set-up: boot both nodes and pull the hot head into memory;
	// repeated, median reported, the last pair kept. The stores are
	// written once, after the first boot, and timed on their own
	// (serve.warm_store_s): every write is fsynced, so on a shared disk
	// that time swings far more than the rest of set-up. Later boots
	// reuse the stores and the addresses, hence the same placement.
	dir, err := os.MkdirTemp(e.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var cp *clusterPair
	var addrs [2]string
	var setups []float64
	for i := 0; i < 3; i++ {
		if cp != nil {
			closePair(cp)
		}
		_, endSetup := e.tr.start("setup", fmt.Sprintf("setup-%d", i), root)
		t0 := time.Now()
		if cp, err = bootCluster(dir, addrs); err != nil {
			return nil, err
		}
		boot := time.Since(t0)
		if i == 0 {
			for j, n := range cp.nodes {
				addrs[j] = strings.TrimPrefix(n.url, "http://")
			}
			t1 := time.Now()
			if err := cp.store(warm); err != nil {
				closePair(cp)
				return nil, err
			}
			o.set("serve.warm_store_s", time.Since(t1).Seconds())
		}
		t1 := time.Now()
		cp.warmMemory(c, hot[:memCacheEntries], chk, o)
		setups = append(setups, (boot + time.Since(t1)).Seconds())
		endSetup()
	}
	defer func() { closePair(cp) }()
	o.set("setup_s", median(setups))
	o.info["warm_keys"] = len(keys)
	o.info["warm_schemes"] = warmSchemes
	o.info["warm_benchmarks"] = warmBenches
	o.info["warm_cycles"] = warmCycles
	o.info["mem_cache_entries"] = memCacheEntries
	o.info["cold_key"] = fmt.Sprintf("%s/%s at a never-used horizon", coldScheme, coldBench)
	o.info["nodes"] = 2
	o.info["workers_per_node"] = max(1, runtime.NumCPU()/2)
	o.info["latency_limit_ms"] = ms(serveLimit)

	// Cold horizons: each phase draws from its own range, so no phase
	// sees another's cold keys warm.
	coldBase := uint64(1500)
	phase := func(name string, rate float64, d time.Duration) []sample {
		sched := buildSchedule(e.seed^coldBase<<20, mix{Rate: rate, Duration: d, ColdBase: coldBase}, hot)
		for _, it := range sched {
			if it.Pop == popCold {
				coldBase++
			}
		}
		sp, end := e.tr.start("phase", name, root)
		defer end()
		ss := c.openLoop(e, cp, sched, chk, name, sp)
		for _, s := range ss {
			o.op(s.err)
		}
		return ss
	}

	var untracedP50 float64
	var before map[string]float64
	if e.traced() {
		saved := e.tr
		e.tr = nil
		ss := phase("untraced", nominalRate, e.seconds/2)
		e.tr = saved
		untracedP50 = quantile(latencies(ss), 0.5)
		if before, err = c.scrapeMetrics(cp.nodes[0]); err != nil {
			return nil, err
		}
	}

	nominal := e.seconds
	if e.traced() {
		nominal = e.seconds / 2
	}
	ss := phase("nominal", nominalRate, nominal)
	lat := latencies(ss)
	o.set("op_p50_ms", quantile(lat, 0.5))
	o.set("op_p99_ms", quantile(lat, 0.99))
	o.set("serve_p50_ms", quantile(lat, 0.5))
	o.set("serve_p90_ms", quantile(lat, 0.9))
	o.set("serve_p99_ms", quantile(lat, 0.99))
	o.set("serve.samples", float64(len(lat)))
	tail := tailPercentile(len(lat))
	o.set("serve.tail_pct", tail)
	o.info["tail"] = map[string]float64{"percentile": tail, "ms": finite(quantile(lat, tail/100)), "samples": float64(len(lat))}
	var lateMs []float64
	byTier := map[string][]float64{}
	cold := 0
	for i, s := range ss {
		lateMs = append(lateMs, ms(s.late))
		byTier[s.source] = append(byTier[s.source], lat[i])
		if s.it.Pop != popWarm {
			cold++
		}
	}
	o.set("serve.gen_late_p99_ms", quantile(lateMs, 0.99))
	// The unit of work is the fixed schedule. work_s is the time its
	// requests waited, from due time to reply, taken tier by tier as
	// requests served x median latency: it grows with the cost of every
	// tier, whatever the open-loop pacing, and a few requests delayed by
	// a host stall move it less than they move a plain sum.
	work := 0.0
	for _, v := range byTier {
		work += float64(len(v)) * median(v) / 1000
	}
	o.set("work_s", work)
	o.set("serve.share_base", float64(len(ss)))
	shares := map[string]float64{}
	for _, t := range serveTiers {
		shares[t] = ratio(float64(len(byTier[t])), float64(len(ss)))
		o.set("serve.share."+t, shares[t])
		o.set("serve."+t+".p50_ms", quantile(byTier[t], 0.5))
		o.set("serve."+t+".p99_ms", quantile(byTier[t], 0.99))
	}
	o.info["tier_shares"] = shares
	o.info["cold_or_duplicate_share"] = ratio(float64(cold), float64(len(ss)))
	o.info["nominal_rate"] = nominalRate
	if !e.traced() {
		return o, nil
	}

	after, err := c.scrapeMetrics(cp.nodes[0])
	if err != nil {
		return nil, err
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	o.set("trace.overhead_ratio", quantile(lat, 0.5)/untracedP50-1)
	o.set("daemon.rejected", delta("gpusecmem_admission_rejected_total"))
	o.set("daemon.coalesced", delta("gpusecmem_coalesced_requests_total"))
	o.set("daemon.memcache_evictions", delta("gpusecmem_cache_evictions_total"))
	o.set("cluster.forwards", delta("gpusecmem_cluster_forwards_total"))
	o.set("cluster.forward_fallbacks", delta("gpusecmem_cluster_forward_fallbacks_total"))
	hits := delta(`gpusecmem_peer_requests_total{op="fetch",outcome="hit"}`)
	attempts := hits + delta(`gpusecmem_peer_requests_total{op="fetch",outcome="miss"}`) + delta(`gpusecmem_peer_requests_total{op="fetch",outcome="error"}`)
	o.set("cluster.peer_fetch_attempts", attempts)
	o.set("cluster.peer_fetch_hit_ratio", ratio(hits, attempts))

	var puts, errs uint64
	for _, n := range cp.nodes {
		st := n.store.Stats()
		puts += st.Puts
		errs += st.Errors
	}
	o.set("resultcache.puts", float64(puts))
	o.set("resultcache.errors", float64(errs))
	if err := layerMicro(e, o, warm, hot, cp); err != nil {
		return nil, err
	}

	// The rate ladder: the highest fixed rate whose p99 meets the limit
	// with no failures and no growing backlog.
	maxRPS := 0.0
	for _, r := range ladderRates {
		ss := phase(fmt.Sprintf("rate-%d", r), float64(r), ladderStep)
		lat := latencies(ss)
		p99 := quantile(lat, 0.99)
		o.set(fmt.Sprintf("serve.rate_%d.p50_ms", r), quantile(lat, 0.5))
		o.set(fmt.Sprintf("serve.rate_%d.p99_ms", r), p99)
		lastQuarter := lat[len(lat)*3/4:]
		if p99 <= ms(serveLimit) && quantile(lastQuarter, 0.5) <= ms(serveLimit) {
			maxRPS = float64(r)
		}
	}
	o.set("serve_max_rps", maxRPS)
	return o, nil
}

// layerMicro times the store, envelope, JSON and placement calls a
// request makes, on the workload's own warm keys.
func layerMicro(e *env, o *outcome, warm map[runKey]*canonical, hot []runKey, cp *clusterPair) error {
	dir, err := os.MkdirTemp(e.outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := resultcache.Open(dir)
	if err != nil {
		return err
	}
	var enc, put, get, dec, js, owner []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	for _, k := range hot[:100] {
		w := warm[k]
		t0 := time.Now()
		raw, err := resultcache.EncodeEnvelope(w.key, w.res)
		enc = append(enc, us(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := store.PutRaw(w.key, raw); err != nil {
			return err
		}
		put = append(put, us(t0))
		t0 = time.Now()
		got, ok := store.GetRaw(w.key)
		get = append(get, us(t0))
		if !ok {
			return errors.New("resultcache: GetRaw missed a key just written")
		}
		t0 = time.Now()
		res, err := resultcache.DecodeEnvelope(got, w.key)
		dec = append(dec, us(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		b, err := json.Marshal(res)
		js = append(js, us(t0))
		if err == nil && !bytes.Equal(b, w.result) {
			err = fmt.Errorf("%s: result bytes changed through the store", k)
		}
		o.op(err)
		const reps = 1000
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			cp.nodes[0].cl.Owner(w.key)
		}
		owner = append(owner, us(t0)/reps)
	}
	o.set("resultcache.encode_envelope_us", median(enc))
	o.set("resultcache.put_raw_us", median(put))
	o.set("resultcache.get_raw_us", median(get))
	o.set("resultcache.decode_envelope_us", median(dec))
	o.set("result.json_encode_us", median(js))
	o.set("cluster.owner_us", median(owner))
	return nil
}
