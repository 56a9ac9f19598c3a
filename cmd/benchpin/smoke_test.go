package main

import (
	"context"
	"io"
	"testing"
	"time"
)

// TestIngestMixSmoke builds schemaevod and runs the ingest_mix path at 10
// operations per second, oracles on. It runs two seconds, since re-uploads
// and GETs target only uploads at least ingestLag old.
func TestIngestMixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs schemaevod")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	e, err := newEnv(ctx, root, t.TempDir(), 7, time.Second, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	o, err := runIngestMix(ctx, e, 10, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 20 operations plus the check that the generator kept to its schedule.
	if o.attempted != 21 || o.failed != 0 {
		t.Errorf("attempted %d, failed %d; want 21 and 0", o.attempted, o.failed)
	}
	for kind, w := range o.waits {
		if len(w) == 0 {
			t.Errorf("no successful op of kind %d", kind)
		}
	}
	if len(o.setup) != daemonSetups || len(o.heapMB) != 1 {
		t.Errorf("setup %v, heap %v", o.setup, o.heapMB)
	}
	m := o.metrics()
	if m["primary_p50_ms"].Value <= 0 || m["setup_s"].Value <= 0 || m["mem_mb"].Value <= 0 {
		t.Errorf("metrics %+v", m)
	}
}
