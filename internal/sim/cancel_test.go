package sim

// Cooperative-cancellation contract of the simulator core: a
// cancelled RunContext returns the bare context error and no partial
// Result, an uncancelled context changes nothing, and the
// cancellation check is cheap enough to sit on the hot path.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gpusecmem/internal/trace"
)

// cancelShards runs each cancellation test on both engines: 0 takes
// the sequential step loop, 4 the parallel barrier-window engine.
var cancelShards = []int{0, 4}

// cancelConfig is the secure configuration on the given engine,
// failing the test if the parallel engine would not actually run.
func cancelConfig(t *testing.T, shards int, cycles uint64) Config {
	t.Helper()
	cfg := SecureMem()
	cfg.MaxCycles = cycles
	cfg.Shards = shards
	g, err := New(cfg, trace.MustNew("nw"))
	if err != nil {
		t.Fatal(err)
	}
	if g.parallelEligible() != (shards > 1) {
		t.Fatalf("shards=%d: parallelEligible = %v", shards, g.parallelEligible())
	}
	return cfg
}

func TestRunContextPreCancelled(t *testing.T) {
	for _, shards := range cancelShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := RunContext(ctx, cancelConfig(t, shards, 100000), "nw")
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatal("cancelled run returned a partial Result")
			}
		})
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	for _, shards := range cancelShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cfg := cancelConfig(t, shards, 1<<40) // would run for hours
			done := make(chan error, 1)
			go func() {
				res, err := RunContext(ctx, cfg, "nw")
				if res != nil {
					err = errors.New("cancelled run returned a partial Result")
				}
				done <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the run get going
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not stop after cancellation")
			}
		})
	}
}

// A deadline behaves like a cancel but surfaces DeadlineExceeded, so
// callers can distinguish budget exhaustion from client disconnects.
func TestRunContextDeadline(t *testing.T) {
	for _, shards := range cancelShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err := RunContext(ctx, cancelConfig(t, shards, 1<<40), "nw")
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

// An un-cancellable context must not change results: Run is documented
// to be RunContext(Background) and the golden digests pin the output,
// but assert the equivalence directly on a short run too.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := SecureMem()
	cfg.MaxCycles = 2000
	a, err := Run(cfg, "nw")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, "nw")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.RequestsByKind != b.RequestsByKind || a.BytesByKind != b.BytesByKind {
		t.Fatalf("RunContext(Background) diverged from Run:\n%+v\n%+v", a, b)
	}
}
