package runner

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestDebugHandlerRoutes(t *testing.T) {
	activeSweep.Store(nil)
	srv := httptest.NewServer(NewDebugHandler())
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/progress") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	if code, _ := get(t, srv, "/not-a-route"); code != http.StatusNotFound {
		t.Fatalf("unknown path returned %d", code)
	}

	// No sweep active: /progress serves JSON null.
	code, body = get(t, srv, "/progress")
	if code != http.StatusOK || strings.TrimSpace(body) != "null" {
		t.Fatalf("idle progress: code %d body %q", code, body)
	}

	// With an active sweep the snapshot carries the live counters.
	var done, failed atomic.Int64
	done.Store(7)
	failed.Store(1)
	activeSweep.Store(&sweepState{
		jobs: 4, planned: 20, done: &done, failed: &failed,
		start: time.Now().Add(-2 * time.Second),
	})
	defer activeSweep.Store(nil)

	code, body = get(t, srv, "/progress")
	if code != http.StatusOK {
		t.Fatalf("progress returned %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if snap.Jobs != 4 || snap.PlannedRuns != 20 || snap.DoneRuns != 7 || snap.FailedRuns != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.ElapsedSeconds <= 0 || snap.RunsPerSec <= 0 {
		t.Fatalf("derived rates missing: %+v", snap)
	}

	// /debug/vars serves the Go runtime's expvars, which /metrics does
	// not carry.
	code, body = get(t, srv, "/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"memstats"`) {
		t.Fatalf("expvar: code %d, memstats missing", code)
	}

	// pprof index responds (profiles themselves are too slow for a unit
	// test).
	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index returned %d", code)
	}

	// /metrics serves the Prometheus exposition of the shared registry,
	// including the sweep counters once a sweep has registered them.
	initSweepInstruments()
	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	if !strings.Contains(body, "# TYPE gpusecmem_sweep_planned_runs gauge") ||
		!strings.Contains(body, "gpusecmem_sweeps_total") {
		t.Fatalf("/metrics missing sweep families:\n%s", body)
	}
	if !strings.Contains(get2(t, srv, "/"), "/metrics") {
		t.Fatal("index missing /metrics route")
	}
}

// get2 is get returning only the body, for inline assertions.
func get2(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	_, body := get(t, srv, path)
	return body
}

func TestStartDebugServerBindFailure(t *testing.T) {
	var log strings.Builder
	stop := startDebugServer("256.256.256.256:0", &log)
	stop() // must be a callable no-op
	if !strings.Contains(log.String(), "endpoint disabled") {
		t.Fatalf("bind failure not reported: %q", log.String())
	}
}

func TestStartDebugServerServes(t *testing.T) {
	var log strings.Builder
	stop := startDebugServer("127.0.0.1:0", &log)
	defer stop()
	out := log.String()
	if !strings.Contains(out, "serving http://") {
		t.Fatalf("no serving line: %q", out)
	}
	addr := strings.TrimPrefix(strings.Fields(out)[2], "http://")
	addr = strings.TrimSuffix(addr, "/")
	resp, err := http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live server returned %d", resp.StatusCode)
	}
}
