package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/store"
)

// warmup is the untimed share of warm_read that fills connection pools and
// memos before the measured phases.
const warmup = 2 * time.Second

// warmTarget is one URL of the warm_read key mix and the bytes the store
// holds for it — the oracle every response is compared against.
type warmTarget struct {
	path  string // e.g. /v1/seeds/101/artifacts/fig4
	want  []byte
	html  bool   // the report.html artifact
	owner string // base URL of the backend the proxy routes it to
}

// warmTargets lists every artifact and figure the store holds for seeds.
func warmTargets(ctx context.Context, storeDir string, seeds []int64) ([]*warmTarget, error) {
	disk, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	var out []*warmTarget
	for _, seed := range seeds {
		snap, err := disk.Get(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("seed %d snapshot: %w", seed, err)
		}
		keys := make([]string, 0, len(snap.Artifacts))
		for key := range snap.Artifacts {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			path := fmt.Sprintf("/v1/seeds/%d/artifacts/%s", seed, key)
			if name, ok := strings.CutPrefix(key, "figures/"); ok {
				path = fmt.Sprintf("/v1/seeds/%d/figures/%s", seed, name)
			}
			out = append(out, &warmTarget{path: path, want: snap.Artifacts[key], html: key == "report.html"})
		}
	}
	return out, nil
}

// sample is one timed request of a closed loop.
type sample struct {
	target *warmTarget
	d      time.Duration
	ok     bool
}

// closedLoop runs loadClients clients for dur; each sends its next GET as
// soon as the previous one completed, to a target drawn uniformly from its
// own seeded stream, on the host base picks.
func (e *env) closedLoop(ctx context.Context, dur time.Duration, seed int64, targets []*warmTarget, base func(*warmTarget) string) []sample {
	per := make([][]sample, loadClients)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*loadClients + int64(c)))
			var body bytes.Buffer
			per[c] = make([]sample, 0, 1<<16)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t := targets[r.Intn(len(targets))]
				t0 := time.Now()
				resp, err := e.send(ctx, http.MethodGet, base(t)+t.path, "", nil, &body)
				d := time.Since(t0)
				ok := err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(body.Bytes(), t.want)
				per[c] = append(per[c], sample{t, d, ok})
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// fleet is two backends sharing one store, fronted by the proxy.
type fleet struct {
	backends [2]*proc
	proxy    *proc
}

// startFleet starts the fleet and returns the time until all three answer
// healthy: one set-up sample.
func (e *env) startFleet(ctx context.Context, storeDir string, prewarm []int64) (*fleet, time.Duration, error) {
	t0 := time.Now()
	seeds := make([]string, len(prewarm))
	for i, s := range prewarm {
		seeds[i] = strconv.FormatInt(s, 10)
	}
	f := &fleet{}
	for i := range f.backends {
		d, _, err := e.start(ctx, "schemaevod", "schemaevod", "-store-dir", storeDir, "-prewarm", strings.Join(seeds, ","))
		if err != nil {
			return nil, 0, err
		}
		f.backends[i] = d
	}
	px, _, err := e.start(ctx, "schemaevo-proxy", "schemaevo-proxy",
		"-backends", f.backends[0].url+","+f.backends[1].url)
	if err != nil {
		return nil, 0, err
	}
	f.proxy = px
	return f, time.Since(t0), nil
}

// learnOwners GETs every target once through the proxy, checking its bytes
// and recording the backend the proxy names as the target's owner.
func (e *env) learnOwners(ctx context.Context, f *fleet, targets []*warmTarget, o *outcome) error {
	for _, t := range targets {
		resp, body, err := e.get(ctx, f.proxy.url+t.path)
		if err != nil {
			return err
		}
		t.owner = resp.Header.Get("X-Schemaevo-Backend")
		o.check(resp.StatusCode == http.StatusOK && bytes.Equal(body, t.want) &&
			(t.owner == f.backends[0].url || t.owner == f.backends[1].url))
		if t.owner == "" {
			t.owner = f.backends[0].url
		}
	}
	return nil
}

func (e *env) stopFleet(f *fleet) {
	e.stop(f.proxy)
	for _, d := range f.backends {
		e.stop(d)
	}
}

// runWarmRead is the serving read path with the pipeline out of the way:
// two backends restore two seeds from a shared store, the proxy fronts
// them, and two keep-alive clients read a uniform key mix over every
// artifact and figure — first direct to each key's owner, then through the
// proxy. The fleet is started daemonSetups times; the last warmRounds
// starts each measure a share of -seconds, half direct and half proxied.
func runWarmRead(ctx context.Context, e *env) (*outcome, error) {
	seeds := []int64{e.seed + 100, e.seed + 101}
	storeDir, err := e.freshDir("store")
	if err != nil {
		return nil, err
	}
	// Input generation, untimed: one daemon runs both seeds and persists
	// their full artifact sets.
	pop, _, err := e.start(ctx, "schemaevod-populate", "schemaevod",
		"-store-dir", storeDir, "-prewarm", fmt.Sprintf("%d,%d", seeds[0], seeds[1]), "-prewarm-workers", "2")
	if err != nil {
		return nil, err
	}
	e.stop(pop)
	targets, err := warmTargets(ctx, storeDir, seeds)
	if err != nil {
		return nil, err
	}

	o := &outcome{}
	for i := 0; i < daemonSetups; i++ {
		f, setup, err := e.startFleet(ctx, storeDir, seeds)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, setup.Seconds())
		if round := i - (daemonSetups - warmRounds); round >= 0 {
			err = e.measureWarm(ctx, f, targets, int64(round), o)
		}
		e.stopFleet(f)
		if err != nil {
			return nil, err
		}
	}
	return o, ctx.Err()
}

// warmRounds is how many fleet starts warm_read spreads its measured time
// over. A fleet's p50 moved by about ±10% from one start to the next on a
// 2-core VM, so one start per run would put that luck into the run's
// median.
const warmRounds = 4

// measureWarm is one round of warm_read on a running fleet: every target
// once through the proxy and an untimed mixed loop to warm up, then the
// round's share of -seconds direct and the same share proxied. The last
// round also reads the backends' live heap.
func (e *env) measureWarm(ctx context.Context, f *fleet, targets []*warmTarget, round int64, o *outcome) error {
	if err := e.learnOwners(ctx, f, targets, o); err != nil {
		return err
	}
	direct := func(t *warmTarget) string { return t.owner }
	proxied := func(*warmTarget) string { return f.proxy.url }
	seed := 4 * (e.seed*warmRounds + round) // four key streams per round
	per := warmup / (2 * warmRounds)
	for _, s := range append(e.closedLoop(ctx, per, seed, targets, direct),
		e.closedLoop(ctx, per, seed+1, targets, proxied)...) {
		o.check(s.ok)
	}

	per = e.seconds / (2 * warmRounds)
	for _, s := range e.closedLoop(ctx, per, seed+2, targets, direct) {
		if o.check(s.ok) {
			o.waits[0] = append(o.waits[0], s.d.Seconds())
			if s.target.html {
				o.waits[2] = append(o.waits[2], s.d.Seconds())
			}
		}
	}
	for _, s := range e.closedLoop(ctx, per, seed+3, targets, proxied) {
		if o.check(s.ok) {
			o.waits[1] = append(o.waits[1], s.d.Seconds())
		}
	}
	if round < warmRounds-1 {
		return ctx.Err()
	}
	var heap float64
	for _, d := range f.backends {
		h, err := e.heapMB(ctx, d)
		if err != nil {
			return err
		}
		heap += h
	}
	o.heapMB = append(o.heapMB, heap)
	return ctx.Err()
}
