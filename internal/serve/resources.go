package serve

import (
	"cmp"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/store"
)

// This file is the unified /v1 resource model. Seeds and ingested
// histories are two kinds of one resource — a key, a deterministic run, an
// artifact map — served through one route shape,
//
//	POST /v1/{plural}                       create/ingest (histories only)
//	GET  /v1/{plural}                       list, optionally paginated
//	GET  /v1/{plural}/{id}                  one resource's descriptor
//	GET  /v1/{plural}/{id}/artifacts/{key}  one rendered artifact
//	GET  /v1/{plural}/{id}/events           SSE progress of the resource's run
//
// one read path (cache hit → store restore → the key's one run and render),
// one restore, one write-behind save, one event stream, one listing, one
// JSON error envelope {error, code, resource, id} and one opaque-cursor
// pagination scheme. A kind supplies only what really differs: how its ids
// parse and key, which artifacts a set holds, and how a run starts and
// renders.

// Kind describes one resource collection's identifiers. The proxy shares
// these descriptors, so both tiers parse, route and report ids alike.
type Kind[K cmp.Ordered] struct {
	Name   string // singular: the envelope's resource field and the log key
	Plural string // the URL segment under /v1
	// Parse validates a path id (or a cursor payload).
	Parse func(raw string) (K, error)
	// Key maps an id to the int64 keying caches, flights, stores, the
	// event bus and the shard ring.
	Key func(K) int64
	// Format renders an id for envelopes, cursors and logs.
	Format func(K) string
	// Addressed marks content-addressed ids, which Key truncates: a stored
	// snapshot restores only if it carries the full id, and event frames
	// carry the full id beside the truncated key.
	Addressed bool
}

// Seeds is the built-in corpus kind: decimal seeds, keyed by themselves.
var Seeds = Kind[int64]{
	Name:   "seed",
	Plural: "seeds",
	Parse: func(raw string) (int64, error) {
		seed, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("seed must be an integer, got %q", raw)
		}
		return seed, nil
	},
	Key:    func(seed int64) int64 { return seed },
	Format: func(seed int64) string { return strconv.FormatInt(seed, 10) },
}

// Histories is the ingested-history kind: the hex SHA-256 content address
// of the normalized upload, keyed by its 64-bit truncation.
var Histories = Kind[string]{
	Name:   "history",
	Plural: "histories",
	Parse: func(id string) (string, error) {
		if !ingest.ValidID(id) {
			return "", fmt.Errorf("history ids are 64 hex characters (the sha-256 returned by POST /v1/histories), got %q", id)
		}
		return id, nil
	},
	Key:       ingest.Key,
	Format:    func(id string) string { return id },
	Addressed: true,
}

// ErrEnvelope is the uniform /v1 error body. Resource and ID name the
// addressed resource; Seed stays populated on seed routes for pre-redesign
// clients.
type ErrEnvelope struct {
	Error    string `json:"error"`
	Code     int    `json:"code"`
	Resource string `json:"resource,omitempty"`
	ID       string `json:"id,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// Ref is the envelope naming one resource of the kind; the zero id names
// the kind alone.
func (k Kind[K]) Ref(id K) ErrEnvelope {
	env := ErrEnvelope{Resource: k.Name}
	var zero K
	if id != zero {
		env.ID = k.Format(id)
		if k.Name == Seeds.Name {
			env.Seed = k.Key(id)
		}
	}
	return env
}

// Write sends the envelope as the response, with code as its status.
func (e ErrEnvelope) Write(w http.ResponseWriter, code int, msg string) {
	e.Error, e.Code = msg, code
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(e)
}

// failRun maps a run error to its status: 504 past the request deadline
// (the run itself continues and fills the cache), 499 when the client
// left, 500 otherwise.
func failRun(w http.ResponseWriter, ref ErrEnvelope, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		ref.Write(w, http.StatusGatewayTimeout,
			"run exceeded the request deadline; retry — the run continues and will be cached")
	case errors.Is(err, context.Canceled):
		ref.Write(w, 499, "request canceled") // nginx-style client-closed-request
	default:
		ref.Write(w, http.StatusInternalServerError, err.Error())
	}
}

// Pagination: lists accept ?limit=N plus an opaque ?cursor= token and
// answer with a next_cursor field while more items remain. A request with
// neither parameter keeps the full-list behavior. Cursors encode the last
// item of the previous page; the next page resumes strictly after it, so a
// cursor stays valid across inserts, restarts and shards.

// defaultPageLimit applies when ?cursor= is sent without ?limit=.
const defaultPageLimit = 100

// cursorPrefix versions the cursor token format.
const cursorPrefix = "v1:"

// PageRequest is one kind's parsed pagination parameter pair.
type PageRequest[K cmp.Ordered] struct {
	Limit  int
	After  K    // the cursor's id: the page resumes strictly after it
	Resume bool // whether a cursor was sent, so After is set
	Paged  bool // whether pagination was requested at all
}

// ParsePage reads ?limit= and ?cursor=. Absent both, pagination is off. A
// cursor must decode and carry an id of the kind; anything else — another
// kind's cursor included — is malformed rather than a restart from the
// first page.
func (k Kind[K]) ParsePage(r *http.Request) (PageRequest[K], error) {
	q := r.URL.Query()
	rawLimit, rawCursor := q.Get("limit"), q.Get("cursor")
	if rawLimit == "" && rawCursor == "" {
		return PageRequest[K]{}, nil
	}
	pr := PageRequest[K]{Limit: defaultPageLimit, Paged: true}
	if rawLimit != "" {
		n, err := strconv.Atoi(rawLimit)
		if err != nil || n <= 0 {
			return PageRequest[K]{}, fmt.Errorf("limit must be a positive integer, got %q", rawLimit)
		}
		pr.Limit = n
	}
	if rawCursor != "" {
		raw, err := base64.RawURLEncoding.DecodeString(rawCursor)
		payload, ok := strings.CutPrefix(string(raw), cursorPrefix)
		after, perr := k.Parse(payload)
		if err != nil || !ok || perr != nil {
			return PageRequest[K]{}, errors.New("malformed cursor; use the next_cursor of a previous response")
		}
		pr.After, pr.Resume = after, true
	}
	return pr, nil
}

// Page slices the page of ascending items that follows pr's cursor and
// returns it with the next page's cursor ("" once the listing is
// exhausted).
func (k Kind[K]) Page(items []K, pr PageRequest[K]) ([]K, string) {
	start := 0
	if pr.Resume {
		start = sort.Search(len(items), func(i int) bool { return items[i] > pr.After })
	}
	if pr.Limit >= len(items)-start { // not start+Limit: a huge ?limit= would overflow
		return items[start:], ""
	}
	end := start + pr.Limit
	return items[start:end], base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + k.Format(items[end-1])))
}

// SortedUnion merges id lists into one ascending list without duplicates
// (empty, never nil, so it encodes as a JSON array).
func SortedUnion[K cmp.Ordered](lists ...[]K) []K {
	all := []K{}
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// runFunc runs one resource and returns the render of its result. The
// result is reachable only through the render, so once that returns the
// daemon holds the rendered bytes alone.
type runFunc[K cmp.Ordered] func(ctx context.Context, id K) (renderFunc, error)

// renderFunc renders one completed run into the snapshot the cache and the
// store keep.
type renderFunc func(ctx context.Context) (*store.Snapshot, error)

// notFound is a read-path outcome answered with 404 and its message.
type notFound string

func (e notFound) Error() string { return string(e) }

// resource is the serving machinery of one kind: its LRU of rendered sets,
// its singleflights, its store, and the kind's hooks.
type resource[K cmp.Ordered] struct {
	Kind[K]
	srv   *Server
	store store.Store // nil = memory only
	keys  []string    // the artifacts every complete set holds (a seed's figures aside)
	cache *resourceCache
	runs  *flightGroup // one run, and so one render, per key
	loads *flightGroup // one store restore per key

	mu  sync.Mutex
	ids map[int64]K // key → id of every resource run or restored; listings translate through it

	// start runs one resource on demand (seeds); nil when a run needs input
	// only a client can supply (a history's upload body).
	start runFunc[K]
	// storedIDs lists the ids in the store.
	storedIDs func(ctx context.Context) ([]K, error)
	// describe adds the kind's fields to a resource descriptor.
	describe func(key int64, desc map[string]any)
}

func newResource[K cmp.Ordered](s *Server, kind Kind[K], st store.Store, keys []string) *resource[K] {
	return &resource[K]{
		Kind:  kind,
		srv:   s,
		store: st,
		keys:  keys,
		cache: newResourceCache(s.opts.CacheSize, s.metrics),
		runs:  newFlightGroup(),
		loads: newFlightGroup(),
		ids:   map[int64]K{},
	}
}

// mount registers the kind's routes.
func (r *resource[K]) mount(mux *http.ServeMux) {
	base := "GET /v1/" + r.Plural
	mux.HandleFunc(base, r.handleList)
	mux.HandleFunc(base+"/{id}", r.handleGet)
	mux.HandleFunc(base+"/{id}/artifacts/{key}", r.handleArtifact)
	mux.HandleFunc(base+"/{id}/events", r.handleEvents)
}

// parse reads the {id} path value, answering 400 when it is malformed.
func (r *resource[K]) parse(w http.ResponseWriter, req *http.Request) (K, bool) {
	id, err := r.Parse(req.PathValue("id"))
	if err != nil {
		var zero K
		r.Ref(zero).Write(w, http.StatusBadRequest, err.Error())
		return id, false
	}
	return id, true
}

func (r *resource[K]) register(key int64, id K) {
	r.mu.Lock()
	r.ids[key] = id
	r.mu.Unlock()
}

// cachedIDs lists the cached resources, most recently used first.
func (r *resource[K]) cachedIDs() []K {
	keys := r.cache.Seeds()
	out := make([]K, 0, len(keys))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range keys {
		if id, ok := r.ids[key]; ok {
			out = append(out, id)
		}
	}
	return out
}

// handleArtifact serves one rendered artifact through the one read path:
// a cache hit, else a store restore, else the key's run — joined while in
// flight, started on demand by a kind that can. A history neither cached,
// stored nor in flight is a 404: the daemon keeps no upload bodies.
func (r *resource[K]) handleArtifact(w http.ResponseWriter, req *http.Request) {
	id, ok := r.parse(w, req)
	if !ok {
		return
	}
	key := req.PathValue("key")
	if name := req.PathValue("name"); name != "" { // a seed's figures route
		if key = figurePrefix + name; !strings.HasSuffix(name, ".svg") {
			r.Ref(id).Write(w, http.StatusNotFound, "figure names end in .svg")
			return
		}
	} else if !slices.Contains(r.keys, key) {
		r.Ref(id).Write(w, http.StatusNotFound, fmt.Sprintf("unknown artifact %q; a %s has %v", key, r.Name, r.keys))
		return
	}
	start := time.Now()
	b, err := r.artifact(req.Context(), id, key)
	if nf, ok := err.(notFound); ok {
		r.Ref(id).Write(w, http.StatusNotFound, string(nf))
		return
	} else if err != nil {
		failRun(w, r.Ref(id), err)
		return
	}
	w.Header().Set("Content-Type", contentTypeFor(key))
	w.Write(b)
	label := key
	if strings.HasPrefix(key, figurePrefix) {
		label = "figures"
	}
	r.srv.metrics.ObserveLatency(label, time.Since(start))
}

// artifact resolves one artifact of id through the read path.
func (r *resource[K]) artifact(ctx context.Context, id K, key string) ([]byte, error) {
	if b, ok := r.lookup(ctx, id, key); ok {
		return b, nil
	}
	unknown := notFound(fmt.Sprintf("unknown artifact %q", key))
	if name, ok := strings.CutPrefix(key, figurePrefix); ok {
		unknown = notFound(fmt.Sprintf("unknown figure %q", name))
		// A cached set carries every figure: a name missing from it is
		// unknown, and a run would not change that.
		if r.cache.HoldsPrefix(r.Key(id), figurePrefix) {
			return nil, unknown
		}
	}
	f, _ := r.flightFor(id, r.start)
	if f == nil {
		if b, ok := r.cache.GetArtifact(r.Key(id), key); ok { // a run settled in between
			r.srv.metrics.cacheMisses.Add(1)
			return b, nil
		}
		return nil, notFound(fmt.Sprintf("unknown %s; POST the %s to /v1/%s first (re-uploads deduplicate)",
			r.Name, r.Name, r.Plural))
	}
	arts, err := r.await(ctx, id, f)
	if err != nil {
		return nil, err
	}
	if b, ok := arts[key]; ok {
		return b, nil
	}
	return nil, unknown
}

// lookup is the cache half of the read path: a hit, else a store restore
// and a second look. Each hit counts as one cache hit or miss, so hits +
// misses stays balanced with the request count.
func (r *resource[K]) lookup(ctx context.Context, id K, artifact string) ([]byte, bool) {
	key := r.Key(id)
	if b, ok := r.cache.GetArtifact(key, artifact); ok {
		r.srv.metrics.cacheHits.Add(1)
		r.srv.metrics.memoHits.Add(1)
		return b, true
	}
	r.restore(ctx, id)
	if b, ok := r.cache.GetArtifact(key, artifact); ok {
		r.srv.metrics.cacheMisses.Add(1) // the LRU missed; the store answered
		return b, true
	}
	return nil, false
}

// flightFor returns the flight that settles id for a caller that missed the
// cache, counting the miss: id's run in progress, else a new run of run on
// its own goroutine (started), else nil when run is nil.
func (r *resource[K]) flightFor(id K, run runFunc[K]) (f *flight, started bool) {
	key, m := r.Key(id), r.srv.metrics
	if run == nil {
		f = r.runs.lookup(key)
	} else {
		f, started = r.runs.join(key)
	}
	if f == nil {
		return nil, false
	}
	m.cacheMisses.Add(1)
	if !started {
		m.flightJoins.Add(1)
		return f, false
	}
	// A run that settled between the caller's miss and this flight has
	// already cached its complete set: serve that instead of a second run.
	if arts, ok := r.cache.Artifacts(key); ok && !slices.ContainsFunc(r.keys, func(k string) bool {
		_, ok := arts[k]
		return !ok
	}) {
		r.runs.finish(key, f, arts, nil)
		return f, false
	}
	r.srv.persistWG.Add(1)
	go r.execute(id, f, run)
	return f, true
}

// execute is the one run of id behind f: the run, then — its outcome
// already released to event streams — the one render of the result, the
// install into the cache and the write-behind save to the store, so the
// next daemon generation restores the set instead of running. A failed or
// panicking run or render caches and persists nothing; its waiters get the
// error and the next request runs afresh. SyncStore waits for all of it.
func (r *resource[K]) execute(id K, f *flight, run runFunc[K]) {
	defer r.srv.persistWG.Done()
	key, log := r.Key(id), r.srv.opts.Logger
	// The render and the save belong to the daemon, not to a request. Their
	// spans go to the shared tracer: stage metrics and the firehose see
	// them, the run's own event stream does not.
	ctx := obs.WithLogger(obs.WithTracer(context.Background(), r.srv.tracer), log)
	start := time.Now()
	snap, err := func() (snap *store.Snapshot, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%s %s: panicked: %v", r.Name, r.Format(id), p)
			}
		}()
		render, err := run(r.srv.runContext(key), id)
		if err != nil {
			return nil, err
		}
		f.markRan(nil)
		return render(ctx)
	}()
	if err != nil {
		log.Warn("run failed", r.Name, r.Format(id), "err", err)
		r.runs.finish(key, f, nil, err)
		return
	}
	r.cache.Install(key, snap.Artifacts)
	r.register(key, id)
	r.runs.finish(key, f, snap.Artifacts, nil)
	if r.store == nil {
		return
	}
	// Let the waiters that finish just woke answer before the save's
	// blocking file I/O holds this goroutine's processor.
	runtime.Gosched()
	snap.Seed, snap.SavedAt = key, time.Now().UTC()
	if r.Addressed {
		snap.ID = r.Format(id)
	}
	if err := r.store.Put(ctx, key, snap); err != nil {
		log.Error("snapshot save failed", r.Name, r.Format(id), "err", err)
		return
	}
	r.srv.metrics.storeSaves.Add(1)
	log.Info("snapshot saved to store", r.Name, r.Format(id),
		"artifacts", len(snap.Artifacts), "took", time.Since(start).Round(time.Millisecond))
}

// await waits for f on behalf of one request and returns its rendered set.
// ctx bounds only this caller's wait: the run is detached, so one that
// loses its caller still renders, fills the cache and saves.
func (r *resource[K]) await(ctx context.Context, id K, f *flight) (map[string][]byte, error) {
	select {
	case <-f.done:
		arts, _ := f.val.(map[string][]byte)
		return arts, f.err
	case <-ctx.Done():
		r.srv.metrics.timeouts.Add(1)
		select {
		case <-f.done:
		default:
			// The waiter gives up but the run keeps going: an orphaned run.
			r.srv.metrics.orphanedRuns.Add(1)
			r.srv.opts.Logger.Warn("request abandoned in-flight run", r.Name, r.Format(id))
		}
		return nil, ctx.Err()
	}
}

// adopt hands a run completed outside the flights (the instrumented
// /v1/debug/trace run) to the one render, install and save — unless a run
// of id is in flight already. It returns the flight that settles id.
func (r *resource[K]) adopt(id K, render renderFunc) *flight {
	f, started := r.runs.join(r.Key(id))
	if started {
		r.srv.persistWG.Add(1)
		go r.execute(id, f, func(context.Context, K) (renderFunc, error) { return render, nil })
	}
	return f
}

// ensure makes id servable warm: already cached, restored from the store,
// or — as the last resort — run and rendered.
func (r *resource[K]) ensure(ctx context.Context, id K) error {
	if r.restore(ctx, id); r.cache.Has(r.Key(id)) {
		return nil
	}
	f, _ := r.flightFor(id, r.start)
	_, err := r.await(ctx, id, f)
	return err
}

// restore is the store read-through for an id not yet cached, the
// warm-restart path. Concurrent callers collapse onto one load. It never
// fails the request: a missing, damaged or foreign snapshot is counted and
// degrades to "not restored" — a cold run, whose save replaces it.
func (r *resource[K]) restore(ctx context.Context, id K) {
	key := r.Key(id)
	if r.store == nil || r.cache.Has(key) {
		return
	}
	r.loads.Do(key, func() (any, error) {
		if r.cache.Has(key) { // restored (or run) while we queued on the flight
			return nil, nil
		}
		log := r.srv.opts.Logger
		snap, err := r.store.Get(obs.WithTracer(ctx, r.srv.tracer), key)
		switch {
		case err == nil && r.Addressed && snap.ID != r.Format(id):
			// Another identity under the same truncated key, or a damaged
			// index entry: not this resource.
			r.srv.metrics.storeMisses.Add(1)
			log.Warn("stored snapshot identity mismatch; treating as miss",
				r.Name, r.Format(id), "stored", snap.ID)
		case err == nil:
			r.srv.metrics.storeHits.Add(1)
			r.cache.Install(key, snap.Artifacts)
			r.register(key, id)
			log.Info("snapshot restored from store",
				r.Name, r.Format(id), "artifacts", len(snap.Artifacts), "saved_at", snap.SavedAt)
		case errors.Is(err, store.ErrNotFound):
			r.srv.metrics.storeMisses.Add(1)
		default:
			r.srv.metrics.storeCorrupt.Add(1)
			log.Warn("store snapshot unusable; treating as miss", r.Name, r.Format(id), "err", err)
		}
		return nil, nil
	})
}

// stored lists the ids in the store (none without one).
func (r *resource[K]) stored(ctx context.Context) []K {
	if r.store == nil {
		return nil
	}
	ids, _ := r.storedIDs(ctx)
	return ids
}

// handleList reports which resources are warm (cached, most recent first)
// and which are durable in the store. With ?limit= or ?cursor= it answers
// one paginated ascending list of their union plus a next_cursor.
func (r *resource[K]) handleList(w http.ResponseWriter, req *http.Request) {
	pr, err := r.ParsePage(req)
	if err != nil {
		var zero K
		r.Ref(zero).Write(w, http.StatusBadRequest, err.Error())
		return
	}
	cached, stored := r.cachedIDs(), r.stored(req.Context())
	w.Header().Set("Content-Type", "application/json")
	if !pr.Paged {
		resp := map[string]any{"cached": cached}
		if r.store != nil {
			resp["stored"] = stored
		}
		json.NewEncoder(w).Encode(resp)
		return
	}
	page, next := r.Page(SortedUnion(cached, stored), pr)
	json.NewEncoder(w).Encode(map[string]any{r.Plural: page, "next_cursor": next})
}

// handleGet describes one resource: identity, warmth, durability. A kind
// that cannot start runs does not know an id it has neither cached nor
// stored.
func (r *resource[K]) handleGet(w http.ResponseWriter, req *http.Request) {
	id, ok := r.parse(w, req)
	if !ok {
		return
	}
	key := r.Key(id)
	cached, stored := r.cache.Has(key), slices.Contains(r.stored(req.Context()), id)
	if !cached && !stored && r.start == nil {
		r.Ref(id).Write(w, http.StatusNotFound,
			fmt.Sprintf("unknown %s; POST it to /v1/%s first", r.Name, r.Plural))
		return
	}
	desc := map[string]any{"resource": r.Name, "id": r.Format(id), "cached": cached, "stored": stored}
	r.describe(key, desc)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(desc)
}
