package runner

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"gpusecmem/internal/telemetry"
)

// ProgressSnapshot is the live view of a running sweep served by the
// debug endpoint's /progress route.
type ProgressSnapshot struct {
	Jobs           int     `json:"jobs"`
	PlannedRuns    int     `json:"planned_runs"`
	DoneRuns       int64   `json:"done_runs"`
	FailedRuns     int64   `json:"failed_runs"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RunsPerSec     float64 `json:"runs_per_sec"`
}

// sweepState is the mutable counter set behind ProgressSnapshot. The
// debug endpoint reads it through an atomic pointer, so a scrape
// during a sweep races safely; when sweeps overlap, the last one to
// start wins the endpoint.
type sweepState struct {
	jobs    int
	planned int
	done    *atomic.Int64
	failed  *atomic.Int64
	start   time.Time
}

func (s *sweepState) snapshot() ProgressSnapshot {
	elapsed := time.Since(s.start).Seconds()
	done := s.done.Load()
	snap := ProgressSnapshot{
		Jobs:           s.jobs,
		PlannedRuns:    s.planned,
		DoneRuns:       done,
		FailedRuns:     s.failed.Load(),
		ElapsedSeconds: elapsed,
	}
	if elapsed > 0 {
		snap.RunsPerSec = float64(done) / elapsed
	}
	return snap
}

var activeSweep atomic.Pointer[sweepState]

// NewDebugHandler builds the sweep debug mux:
//
//	/          index of available routes
//	/progress  live sweep progress as JSON
//	/metrics   Prometheus text-format exposition of telemetry.Default
//	/debug/vars  the Go runtime's expvars (memstats, cmdline)
//	/debug/pprof/*  net/http/pprof profiles for long sweeps
//
// The handler is safe to serve while a sweep runs.
func NewDebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "gpusecmem sweep debug endpoint\n\n"+
			"  /progress       live sweep progress (JSON)\n"+
			"  /metrics        Prometheus text-format exposition\n"+
			"  /debug/vars     Go runtime expvars (memstats, cmdline)\n"+
			"  /debug/pprof/   CPU/heap/goroutine profiles\n")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s := activeSweep.Load()
		if s == nil {
			fmt.Fprintln(w, "null")
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.snapshot())
	})
	mux.Handle("/metrics", telemetry.Default.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startDebugServer binds addr and serves the debug mux until the
// returned stop function is called. Binding failures are reported to
// out rather than aborting the sweep — observability must never kill
// the work it observes.
func startDebugServer(addr string, out io.Writer) func() {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(out, "debug: %v (endpoint disabled)\n", err)
		return func() {}
	}
	srv := &http.Server{Handler: NewDebugHandler()}
	go srv.Serve(ln)
	fmt.Fprintf(out, "debug: serving http://%s/ (/progress, /metrics, /debug/vars, /debug/pprof)\n", ln.Addr())
	return func() { srv.Close() }
}
