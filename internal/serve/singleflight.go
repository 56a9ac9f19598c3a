package serve

import (
	"fmt"
	"sync"
)

// flightGroup deduplicates concurrent work per key: the first caller owns
// the flight and settles it, every caller that arrives while it is in
// flight waits on the same outcome. Unlike golang.org/x/sync/singleflight
// this is specialised to int64 keys, so no extra dependency.
type flightGroup struct {
	mu      sync.Mutex
	flights map[int64]*flight
}

// flight is one piece of work in progress. A run flight settles in two
// steps: ran closes when the run proper ends (a seed's pipeline, which is
// when its event streams send their result), done when the rendered set is
// final. Only the owner writes the fields, each before closing the channel
// that publishes it.
type flight struct {
	ran    chan struct{} // closed once runErr is final; at the latest with done
	done   chan struct{} // closed once val and err are final
	runErr error
	val    any
	err    error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: map[int64]*flight{}}
}

// join returns key's flight in progress, or registers a new one and reports
// started: the caller then owns it and must settle it with finish.
func (g *flightGroup) join(key int64) (f *flight, started bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	f = &flight{ran: make(chan struct{}), done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// lookup returns key's flight in progress, or nil. Unlike join it never
// registers one — the probe for a caller that cannot start the work itself.
func (g *flightGroup) lookup(key int64) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flights[key]
}

// markRan publishes the outcome of the run proper. Owner only; later calls
// are no-ops.
func (f *flight) markRan(err error) {
	select {
	case <-f.ran:
	default:
		f.runErr = err
		close(f.ran)
	}
}

// finish settles f — which key's owner holds — with its final outcome and
// frees key for the next flight.
func (g *flightGroup) finish(key int64, f *flight, val any, err error) {
	f.markRan(err)
	f.val, f.err = val, err
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
}

// Do executes fn for key in the calling goroutine, collapsing concurrent
// calls onto one execution. shared reports whether this caller joined an
// already in-flight call. A panic in fn settles the flight like any failure
// — every caller gets it back as an error, and the next Do for the key runs
// fn afresh.
func (g *flightGroup) Do(key int64, fn func() (any, error)) (val any, err error, shared bool) {
	f, started := g.join(key)
	if !started {
		<-f.done
		return f.val, f.err, true
	}
	defer func() {
		if p := recover(); p != nil {
			val, err = nil, fmt.Errorf("serve: work for key %d panicked: %v", key, p)
		}
		g.finish(key, f, val, err)
	}()
	val, err = fn()
	return val, err, false
}
