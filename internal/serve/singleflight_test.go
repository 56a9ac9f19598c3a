package serve

import (
	"strings"
	"testing"
)

// A panicking call settles its flight like any failure: the caller gets an
// error, and the key is free for the next call.
func TestFlightPanicSettles(t *testing.T) {
	g := newFlightGroup()
	_, err, _ := g.Do(1, func() (any, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking call returned %v, want an error carrying the panic", err)
	}
	if g.lookup(1) != nil {
		t.Fatal("panicked flight still registered")
	}
	ran := false
	v, err, shared := g.Do(1, func() (any, error) { ran = true; return 7, nil })
	if !ran || err != nil || v != 7 || shared {
		t.Errorf("second Do: ran=%v v=%v err=%v shared=%v, want a fresh run", ran, v, err, shared)
	}
}
