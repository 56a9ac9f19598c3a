package serve

import (
	"strings"
	"testing"
	"time"
)

// A panicking run settles its flight like any failure: the caller gets an
// error, and the key is free for the next run.
func TestFlightPanicSettles(t *testing.T) {
	g := newFlightGroup()
	_, err, _ := g.Do(1, func() (any, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking run returned %v, want an error carrying the panic", err)
	}
	if g.Inflight(1) {
		t.Fatal("panicked flight still registered")
	}
	ran := false
	v, err, shared := g.Do(1, func() (any, error) { ran = true; return 7, nil })
	if !ran || err != nil || v != 7 || shared {
		t.Errorf("second Do: ran=%v v=%v err=%v shared=%v, want a fresh run", ran, v, err, shared)
	}
}

// DoChan runs fn on its own goroutine — where pipeline and ingest runs
// execute — so a panic there must arrive as an error, not kill the process.
func TestFlightDoChanPanicDelivers(t *testing.T) {
	g := newFlightGroup()
	select {
	case res := <-g.DoChan(2, func() (any, error) { panic("boom") }):
		if res.Err == nil {
			t.Error("panicking DoChan delivered no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("panicking DoChan never delivered")
	}
}
