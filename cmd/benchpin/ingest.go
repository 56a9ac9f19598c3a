package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/ingest"
)

// ingestRate is ingest_mix's offered load in operations per second.
const ingestRate = 60

// ingestLag keeps re-uploads and GETs off histories whose first upload was
// due less than this long before: the schedule is fixed in advance, so it
// must not depend on how fast the daemon answered.
const ingestLag = time.Second

// maxUploadVersions caps each upload's history, which keeps the largest
// bodies near 1 MB.
const maxUploadVersions = 27

// lateLimit is the generator lateness beyond which an ingest_mix run
// measured the generator rather than the daemon.
const lateLimit = 5 * time.Millisecond

const (
	opNew = iota
	opDedup
	opGet
)

// ingestOp is one scheduled operation of the open loop.
type ingestOp struct {
	kind   int
	upload int    // index into the uploads
	key    string // artifact key, for opGet
	due    time.Duration
}

// planIngest draws the whole schedule from seed: rate·dur operations due at
// a fixed rate, each a new upload, a re-upload of an accepted history, or a
// GET of one of its artifacts, a third each. It returns the schedule and
// how many distinct uploads it needs.
func planIngest(seed int64, rate float64, dur time.Duration) ([]ingestOp, int) {
	r := rand.New(rand.NewSource(seed))
	keys := ingest.ArtifactKeys()
	n := int(rate * dur.Seconds())
	ops := make([]ingestOp, n)
	var firstDue []time.Duration // per upload, when its new op is due
	for i := range ops {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		ready := sort.Search(len(firstDue), func(u int) bool { return firstDue[u] > due-ingestLag })
		op := ingestOp{kind: r.Intn(3), due: due}
		if ready == 0 {
			op.kind = opNew
		}
		switch op.kind {
		case opNew:
			op.upload = len(firstDue)
			firstDue = append(firstDue, due)
		case opDedup:
			op.upload = r.Intn(ready)
		case opGet:
			op.upload = r.Intn(ready)
			op.key = keys[r.Intn(len(keys))]
		}
		ops[i] = op
	}
	return ops, len(firstDue)
}

// upload is one history upload body and its locally computed identity.
type upload struct {
	ctype string
	body  []byte
	id    string // ingest.Prepare's content address
}

// makeUploads builds n distinct MySQL histories with corpus.Plan and
// corpus.Build, taxa weighted like the paper's population. Two thirds go
// up as JSON, one third as annotated SQL dumps.
func makeUploads(seed int64, n int) ([]upload, error) {
	r := rand.New(rand.NewSource(seed))
	counts := corpus.DefaultCounts()
	total := 0
	for _, t := range core.Taxa {
		total += counts[t]
	}
	out := make([]upload, n)
	seen := map[string]bool{}
	for i := range out {
		pick := r.Intn(total)
		taxon := core.Taxa[0]
		for _, t := range core.Taxa {
			if pick < counts[t] {
				taxon = t
				break
			}
			pick -= counts[t]
		}
		name := fmt.Sprintf("upload_%d_%04d", seed, i)
		vs := corpus.Build(name, corpus.Plan(taxon, r), r, 2012).Hist.Versions
		if len(vs) > maxUploadVersions {
			vs = vs[:maxUploadVersions]
		}
		u := upload{ctype: ingest.MediaJSON}
		if i%3 == 2 {
			var b bytes.Buffer
			for _, v := range vs {
				fmt.Fprintf(&b, "-- schemaevo:version %s\n%s\n", v.When.UTC().Format(time.RFC3339), v.SQL)
			}
			u.ctype, u.body = ingest.MediaSQL, b.Bytes()
		} else {
			type version struct {
				When time.Time `json:"when"`
				SQL  string    `json:"sql"`
			}
			doc := struct {
				Project  string    `json:"project"`
				Versions []version `json:"versions"`
			}{Project: name}
			for _, v := range vs {
				doc.Versions = append(doc.Versions, version{v.When, v.SQL})
			}
			var err error
			if u.body, err = json.Marshal(doc); err != nil {
				return nil, err
			}
		}
		up, err := ingest.Prepare(u.ctype, u.body)
		if err != nil {
			return nil, fmt.Errorf("upload %d: %w", i, err)
		}
		if seen[up.ID] {
			return nil, fmt.Errorf("upload %d repeats an earlier history", i)
		}
		seen[up.ID] = true
		u.id = up.ID
		out[i] = u
	}
	return out, nil
}

// clock is the open loop's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t or until ctx ends, and returns when it woke.
	SleepUntil(ctx context.Context, t time.Time) time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) time.Time {
	if d := time.Until(t); d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
		}
	}
	return time.Now()
}

// opTiming is one open-loop operation's outcome.
type opTiming struct {
	late    time.Duration // how late the generator dispatched it
	latency time.Duration // from its due time to completion
	err     error
}

// openLoop dispatches operation i at start+due[i] whether or not earlier
// operations have completed, onto a pool of workers. Each latency runs from
// the operation's due time, so a stall also charges the wait it imposes on
// the operations queued behind it; late records how far behind schedule
// the dispatcher itself woke.
func openLoop(ctx context.Context, clk clock, due []time.Duration, workers int, do func(ctx context.Context, i int) error) []opTiming {
	out := make([]opTiming, len(due))
	queue := make(chan int, len(due)) // room for every op: dispatch never waits on the pool
	start := clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := do(ctx, i)
				out[i].latency = clk.Now().Sub(start.Add(due[i]))
				out[i].err = err
			}
		}()
	}
	for i, d := range due {
		at := start.Add(d)
		woke := clk.SleepUntil(ctx, at)
		if ctx.Err() != nil {
			break
		}
		out[i].late = woke.Sub(at)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// loadStats describes how the generator itself kept up.
type loadStats struct {
	lateP99 time.Duration
	rps     float64 // operations completed per second of the run
}

// driveIngest runs the schedule against base and checks every answer:
// a new upload must return 201 created:true with the locally computed id,
// a re-upload 200 created:false, and a GET the bytes ingest.Run produces
// in-process (computed after the loop, off the clock).
func (e *env) driveIngest(ctx context.Context, base string, ops []ingestOp, ups []upload, o *outcome) (loadStats, error) {
	got := make([][sha256.Size]byte, len(ops))
	due := make([]time.Duration, len(ops))
	for i, op := range ops {
		due[i] = op.due
	}
	res := openLoop(ctx, wallClock{}, due, loadClients, func(ctx context.Context, i int) error {
		op, u := ops[i], ups[ops[i].upload]
		if op.kind == opGet {
			resp, body, err := e.get(ctx, fmt.Sprintf("%s/v1/histories/%s/artifacts/%s", base, u.id, op.key))
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET %s of upload %d: status %d", op.key, op.upload, resp.StatusCode)
			}
			got[i] = sha256.Sum256(body)
			return nil
		}
		resp, body, err := e.do(ctx, http.MethodPost, base+"/v1/histories", u.ctype, u.body)
		if err != nil {
			return err
		}
		var doc struct {
			ID      string `json:"id"`
			Created bool   `json:"created"`
		}
		want := http.StatusCreated
		if op.kind == opDedup {
			want = http.StatusOK
		}
		if resp.StatusCode != want || json.Unmarshal(body, &doc) != nil || doc.ID != u.id || doc.Created != (op.kind == opNew) {
			return fmt.Errorf("upload %d (op kind %d): status %d, body %.120s", op.upload, op.kind, resp.StatusCode, body)
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return loadStats{}, err
	}

	expected := map[int]map[string][]byte{}
	var late []float64
	var end time.Duration
	reported := 0
	for i, op := range ops {
		r := res[i]
		late = append(late, r.late.Seconds())
		end = max(end, op.due+r.latency)
		ok := r.err == nil
		if ok && op.kind == opGet {
			arts, done := expected[op.upload]
			if !done {
				u := ups[op.upload]
				up, err := ingest.Prepare(u.ctype, u.body)
				if err != nil {
					return loadStats{}, err
				}
				run, err := ingest.Run(ctx, up)
				if err != nil {
					return loadStats{}, err
				}
				arts = run.Artifacts
				expected[op.upload] = arts
			}
			ok = sha256.Sum256(arts[op.key]) == got[i]
		}
		if o.check(ok) {
			o.waits[op.kind] = append(o.waits[op.kind], r.latency.Seconds())
		} else if reported < 5 {
			reported++
			if r.err == nil {
				r.err = fmt.Errorf("GET %s of upload %d differs from ingest.Run's", op.key, op.upload)
			}
			fmt.Fprintf(e.log, "benchpin: ingest op %d failed: %v\n", i, r.err)
		}
	}
	st := loadStats{lateP99: time.Duration(quantile(late, 0.99) * float64(time.Second))}
	if end > 0 {
		st.rps = float64(len(ops)) / end.Seconds()
	}
	return st, nil
}

// runIngestMix is independent users uploading histories: an open loop at
// rate operations per second for dur against one daemon on a fresh store,
// mixing new uploads, dedup re-uploads and artifact GETs.
func runIngestMix(ctx context.Context, e *env, rate float64, dur time.Duration) (*outcome, error) {
	ops, n := planIngest(e.seed, rate, dur)
	ups, err := makeUploads(e.seed, n)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var d *proc
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			e.stop(d)
		}
		storeDir, err := e.freshDir("store")
		if err != nil {
			return nil, err
		}
		var setup time.Duration
		if d, setup, err = e.start(ctx, "schemaevod", "schemaevod", "-store-dir", storeDir); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, setup.Seconds())
	}
	defer e.stop(d)
	st, err := e.driveIngest(ctx, d.url, ops, ups, o)
	if err != nil {
		return nil, err
	}
	// A generator-bound run is invalid, not slow: it counts as a failed
	// operation, so the run reports correct:false and compare and baseline
	// never average it in.
	if !o.check(st.lateP99 <= lateLimit) {
		fmt.Fprintf(e.log, "benchpin: ingest_mix INVALID: the generator ran %v late at p99 (limit %v)\n", st.lateP99, lateLimit)
	}
	heap, err := e.heapMB(ctx, d)
	o.heapMB = append(o.heapMB, heap)
	return o, err
}
