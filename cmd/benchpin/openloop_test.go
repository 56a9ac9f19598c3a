package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock only moves when the test sets it. Every SleepUntil announces on
// woke the time it woke at, so the test can move the clock on only after
// the dispatcher has read it.
type fakeClock struct {
	mu   sync.Mutex
	cond *sync.Cond
	now  time.Time
	woke chan time.Time
}

func newFakeClock(t0 time.Time) *fakeClock {
	c := &fakeClock{now: t0, woke: make(chan time.Time, 16)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) time.Time {
	c.mu.Lock()
	for c.now.Before(t) {
		c.cond.Wait()
	}
	now := c.now
	c.mu.Unlock()
	c.woke <- now
	return now
}

func (c *fakeClock) set(t time.Time) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
	c.cond.Broadcast()
}

// TestOpenLoopTimesFromDue stalls the first of three operations on one
// worker. The stall must show in the latency of the operations queued
// behind it, measured from their due times, while the generator's own
// lateness is recorded apart.
func TestOpenLoopTimesFromDue(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ms := time.Millisecond
	clk := newFakeClock(t0)
	started := make(chan int, 3)
	release := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	done := make(chan []opTiming)
	go func() {
		done <- openLoop(context.Background(), clk, []time.Duration{0, 10 * ms, 20 * ms}, 1,
			func(_ context.Context, i int) error {
				started <- i
				<-release[i]
				return nil
			})
	}()

	<-clk.woke // op 0 is due at once
	if i := <-started; i != 0 {
		t.Fatalf("first op started = %d", i)
	}
	clk.set(t0.Add(10 * ms))
	<-clk.woke // op 1 dispatched on time, while op 0 still runs
	clk.set(t0.Add(22 * ms))
	<-clk.woke               // op 2 dispatched 2 ms late
	clk.set(t0.Add(50 * ms)) // op 0 stalls until 50 ms
	close(release[0])
	<-started // op 1 starts only once op 0 is recorded
	clk.set(t0.Add(60 * ms))
	close(release[1])
	<-started
	close(release[2])
	got := <-done

	wantLate := []time.Duration{0, 0, 2 * ms}
	wantLatency := []time.Duration{50 * ms, 50 * ms, 40 * ms}
	for i, r := range got {
		if r.late != wantLate[i] || r.latency != wantLatency[i] || r.err != nil {
			t.Errorf("op %d: late %v latency %v err %v; want late %v latency %v",
				i, r.late, r.latency, r.err, wantLate[i], wantLatency[i])
		}
	}
}

// TestPlanIngest checks the schedule: fixed rate, deterministic per seed,
// a mix of all three kinds, and re-uploads and GETs only of uploads due at
// least ingestLag earlier.
func TestPlanIngest(t *testing.T) {
	ops, n := planIngest(5, 60, 10*time.Second)
	again, _ := planIngest(5, 60, 10*time.Second)
	if len(ops) != 600 {
		t.Fatalf("%d ops, want 600", len(ops))
	}
	firstDue := map[int]time.Duration{}
	kinds := map[int]int{}
	for i, op := range ops {
		if op != again[i] {
			t.Fatalf("op %d differs between two plans of one seed", i)
		}
		if want := time.Duration(i) * time.Second / 60; op.due-want > time.Microsecond || want-op.due > time.Microsecond {
			t.Errorf("op %d due %v, want %v", i, op.due, want)
		}
		kinds[op.kind]++
		if op.kind == opNew {
			if _, dup := firstDue[op.upload]; dup {
				t.Errorf("op %d uploads %d a second time as new", i, op.upload)
			}
			firstDue[op.upload] = op.due
			continue
		}
		first, ok := firstDue[op.upload]
		if !ok || op.due-first < ingestLag {
			t.Errorf("op %d (kind %d) targets upload %d before it is %v old", i, op.kind, op.upload, ingestLag)
		}
	}
	if len(firstDue) != n {
		t.Errorf("plan says %d uploads, schedule has %d", n, len(firstDue))
	}
	for k := opNew; k <= opGet; k++ {
		if kinds[k] < 100 {
			t.Errorf("only %d ops of kind %d", kinds[k], k)
		}
	}
}
