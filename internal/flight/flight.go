// Package flight is the repository's one singleflight: Group coalesces
// concurrent calls for the same key onto a single execution of the
// work and hands its outcome to every caller. Both the experiment
// memo (gpusecmem.Context) and secmemd's server-scope run coalescing
// route through it.
//
// Cancellation follows the caller, not the key. A leader whose work
// ends in context.Canceled or context.DeadlineExceeded is unregistered
// before its waiters wake, and each waiter that is still live then
// leads a fresh attempt under its own context; a cancelled run never
// poisons the callers sharing it. A waiter whose own context dies
// stops waiting and returns ctx.Err(). A Group holds no completed
// results: an entry lives only while its work runs, so memoization is
// the caller's business.
//
// Concurrency contract: a Group is safe for concurrent use by any
// number of goroutines, and its zero value is ready to use. The work
// function runs on the leading caller's goroutine. The value it
// returns is shared with every waiter without copying, so callers must
// treat shared values as immutable.
package flight

import (
	"context"
	"errors"
	"sync"
)

// errLeaderPanicked is what waiters receive when the leader's work
// panics; the leader itself keeps panicking.
var errLeaderPanicked = errors.New("flight: leader panicked")

// call is one in-flight execution of a key's work. Its fields are
// written only before done is closed.
type call[V any] struct {
	done  chan struct{}
	val   V
	err   error
	retry bool // the leader was cancelled: waiters lead their own attempt
}

// Group coalesces work by key (see the package doc).
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// Cancelled reports whether err is a context cancellation or deadline
// — the errors that end a leader's flight without settling its key.
func Cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Do runs fn once per key per flight. The first caller leads and
// executes fn; concurrent callers with the same key wait and share its
// outcome (shared=true). A waiter whose ctx dies returns ctx.Err()
// with shared=true. A waiter whose leader was cancelled loops and, if
// no other waiter got there first, leads its own attempt with its own
// fn (shared=false).
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	for {
		g.mu.Lock()
		if c, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
				if c.retry {
					continue
				}
				return c.val, true, c.err
			case <-ctx.Done():
				return v, true, ctx.Err()
			}
		}
		if g.m == nil {
			g.m = make(map[string]*call[V])
		}
		c := &call[V]{done: make(chan struct{})}
		g.m[key] = c
		g.mu.Unlock()

		g.lead(key, c, fn)
		return c.val, false, c.err
	}
}

// lead executes fn for c, then unregisters c before waking its
// waiters, so a retrying waiter can immediately lead a fresh flight.
func (g *Group[V]) lead(key string, c *call[V], fn func() (V, error)) {
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.retry = Cancelled(c.err)
		close(c.done)
	}()
	c.err = errLeaderPanicked // replaced when fn returns
	c.val, c.err = fn()
}
