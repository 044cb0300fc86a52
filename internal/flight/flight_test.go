package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type result struct{ source string }

// TestGroupShares pins the coalescing contract: concurrent callers
// with one key run fn once; everyone gets the leader's value and the
// waiters report shared=true.
func TestGroupShares(t *testing.T) {
	var g Group[*result]
	want := &result{source: "simulated"}
	block := make(chan struct{})
	var calls atomic.Int32

	fn := func() (*result, error) {
		calls.Add(1)
		<-block
		return want, nil
	}

	const n = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", fn)
			if err != nil || v != want {
				t.Errorf("Do: v=%p err=%v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let the leader start and the waiters pile up, then release.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(block)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("shared for %d callers, want %d", got, n-1)
	}
}

// TestGroupIndependentKeys pins that distinct keys never share a
// flight.
func TestGroupIndependentKeys(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			g.Do(context.Background(), key, func() (int, error) {
				calls.Add(1)
				return len(key), nil
			})
		}(key)
	}
	wg.Wait()
	if got := calls.Load(); got != 3 {
		t.Fatalf("fn ran %d times, want 3", got)
	}
}

// TestGroupRetryAfterCancelledLeader pins the cancel-retry contract: a
// waiter does not inherit the leader's cancellation — it re-leads its
// own attempt under its own context.
func TestGroupRetryAfterCancelledLeader(t *testing.T) {
	for _, cancelErr := range []error{context.Canceled, context.DeadlineExceeded} {
		t.Run(cancelErr.Error(), func(t *testing.T) {
			var g Group[*result]
			want := &result{source: "simulated"}
			leaderIn := make(chan struct{})

			go g.Do(context.Background(), "k", func() (*result, error) {
				close(leaderIn)
				// Hold the flight long enough for the waiter to be
				// queued on it, then die as a cancelled run would.
				time.Sleep(30 * time.Millisecond)
				return nil, cancelErr
			})

			<-leaderIn
			v, shared, err := g.Do(context.Background(), "k", func() (*result, error) {
				return want, nil
			})
			if err != nil {
				t.Fatalf("waiter inherited the leader's cancellation: %v", err)
			}
			if v != want {
				t.Fatalf("retry value = %+v", v)
			}
			if shared {
				t.Fatal("retrying waiter should have led its own flight (shared=false)")
			}
		})
	}
}

// TestGroupWaiterContext pins that a waiter whose own context dies
// leaves with its context's error instead of blocking on the leader.
func TestGroupWaiterContext(t *testing.T) {
	var g Group[*result]
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})

	go g.Do(context.Background(), "k", func() (*result, error) {
		close(started)
		<-block
		return &result{}, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := g.Do(ctx, "k", func() (*result, error) {
		t.Error("cancelled waiter ran fn")
		return nil, nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGroupSharesErrors pins that an ordinary (non-cancellation) error
// is the flight's outcome: waiters share it rather than retrying.
func TestGroupSharesErrors(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	var calls atomic.Int32

	go g.Do(context.Background(), "k", func() (int, error) {
		calls.Add(1)
		close(leaderIn)
		time.Sleep(30 * time.Millisecond)
		return 0, boom
	})
	<-leaderIn
	_, shared, err := g.Do(context.Background(), "k", func() (int, error) {
		calls.Add(1)
		return 1, nil
	})
	if !errors.Is(err, boom) || !shared {
		t.Fatalf("waiter: shared=%v err=%v, want the leader's error", shared, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

// TestGroupLeaderPanicReleasesWaiters pins that a panicking leader
// still unregisters its flight and wakes its waiters with an error.
func TestGroupLeaderPanicReleasesWaiters(t *testing.T) {
	var g Group[int]
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(leaderIn)
			<-release
			panic("boom")
		})
	}()
	<-leaderIn
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (int, error) { return 1, nil })
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("waiter of a panicked leader got no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after the leader panicked")
	}
	if v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 || shared || err != nil {
		t.Fatalf("fresh flight after panic: v=%d shared=%v err=%v", v, shared, err)
	}
}
