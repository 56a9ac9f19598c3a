package serve

import (
	"fmt"
	"sync"
)

// flightGroup deduplicates concurrent runs per key: the first
// caller executes fn, every caller that arrives while the run is in flight
// blocks on the same result. Unlike golang.org/x/sync/singleflight this is
// specialised to int64 keys, so no extra dependency.
type flightGroup struct {
	mu      sync.Mutex
	flights map[int64]*flight
}

type flight struct {
	done chan struct{} // closed when val/err are final
	val  any
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: map[int64]*flight{}}
}

// Do executes fn for key, collapsing concurrent calls onto one execution.
// shared reports whether this caller joined an already in-flight run. A
// panic in fn settles the flight like any failure — every caller gets it
// back as an error, and the next Do for the key runs fn afresh.
func (g *flightGroup) Do(key int64, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.val, f.err, true
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			f.val, f.err = nil, fmt.Errorf("serve: run for key %d panicked: %v", key, p)
			val, err = f.val, f.err
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	return f.val, f.err, false
}

// Inflight reports whether a run for key is currently executing — the probe
// the orphaned-run counter uses when a waiter times out.
func (g *flightGroup) Inflight(key int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.flights[key]
	return ok
}

// Wait returns a channel that closes when the currently in-flight run for
// key settles (its result already published to the caches), or nil when no
// run is in flight. Unlike Do it never starts a run — the probe an event
// stream uses to join a run it cannot trigger itself.
func (g *flightGroup) Wait(key int64) <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f.done
	}
	return nil
}

// DoChan is the non-blocking variant: the result is delivered on the
// returned channel, letting the caller race it against a context deadline
// while the run keeps going (and still populates the cache) after the
// caller gives up.
func (g *flightGroup) DoChan(key int64, fn func() (any, error)) <-chan flightResult {
	ch := make(chan flightResult, 1)
	go func() {
		val, err, shared := g.Do(key, fn)
		ch <- flightResult{Val: val, Err: err, Shared: shared}
	}()
	return ch
}

// flightResult is one Do outcome delivered through DoChan.
type flightResult struct {
	Val    any
	Err    error
	Shared bool
}
