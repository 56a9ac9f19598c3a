package serve

import (
	"cmp"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

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
// one read path (memo hit → store restore → singleflight run), one restore,
// one write-behind persist, one event stream, one listing, one JSON error
// envelope {error, code, resource, id} and one opaque-cursor pagination
// scheme. A kind supplies only what really differs: how its ids parse and
// key, how a run starts, and what a run's snapshot holds.

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

// PageRequest is a parsed pagination parameter pair.
type PageRequest struct {
	Limit  int
	Cursor string // decoded resume-after payload ("" = from the start)
	Paged  bool   // whether pagination was requested at all
}

// ParsePage reads ?limit= and ?cursor=. Absent both, pagination is off.
func ParsePage(r *http.Request) (PageRequest, error) {
	q := r.URL.Query()
	rawLimit, rawCursor := q.Get("limit"), q.Get("cursor")
	if rawLimit == "" && rawCursor == "" {
		return PageRequest{}, nil
	}
	pr := PageRequest{Limit: defaultPageLimit, Paged: true}
	if rawLimit != "" {
		n, err := strconv.Atoi(rawLimit)
		if err != nil || n <= 0 {
			return PageRequest{}, fmt.Errorf("limit must be a positive integer, got %q", rawLimit)
		}
		pr.Limit = n
	}
	if rawCursor != "" {
		raw, err := base64.RawURLEncoding.DecodeString(rawCursor)
		if err != nil || !strings.HasPrefix(string(raw), cursorPrefix) {
			return PageRequest{}, errors.New("malformed cursor; use the next_cursor of a previous response")
		}
		pr.Cursor = strings.TrimPrefix(string(raw), cursorPrefix)
	}
	return pr, nil
}

// Page slices the page of ascending items that follows pr's cursor and
// returns it with the next page's cursor ("" once the listing is
// exhausted).
func (k Kind[K]) Page(items []K, pr PageRequest) ([]K, string) {
	start := 0
	if after, err := k.Parse(pr.Cursor); pr.Cursor != "" && err == nil {
		start = sort.Search(len(items), func(i int) bool { return items[i] > after })
	}
	end := start + pr.Limit
	if end >= len(items) {
		return items[start:], ""
	}
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

// resource is the serving machinery of one kind: its LRU with artifact
// memo, its singleflights, its store, and the kind-specific hooks.
type resource[K cmp.Ordered, V any] struct {
	Kind[K]
	srv   *Server
	store store.Store // nil = memory only
	cache *resourceCache[V]
	runs  *flightGroup // one run per key
	loads *flightGroup // one store restore per key

	mu         sync.Mutex
	ids        map[int64]K    // key → id of every resource run or restored; listings translate through it
	persisting map[int64]bool // keys with a write-behind save in flight

	// start runs one resource on demand (seeds); nil when a run needs input
	// only a client can supply (a history's upload body).
	start func(ctx context.Context, id K) (V, error)
	// memo is the artifact set a run yields already rendered (nil = the
	// artifacts render lazily, from the live value).
	memo func(V) map[string][]byte
	// snapshot builds the write-behind's snapshot of a run; persist fills
	// in the key, id and timestamp.
	snapshot func(ctx context.Context, v V) (*store.Snapshot, error)
	// storedIDs lists the ids in the store.
	storedIDs func(ctx context.Context) ([]K, error)
	// describe adds the kind's fields to a resource descriptor.
	describe func(key int64, desc map[string]any)
}

func newResource[K cmp.Ordered, V any](s *Server, kind Kind[K], st store.Store) *resource[K, V] {
	return &resource[K, V]{
		Kind:       kind,
		srv:        s,
		store:      st,
		cache:      newResourceCache[V](s.opts.CacheSize, s.metrics),
		runs:       newFlightGroup(),
		loads:      newFlightGroup(),
		ids:        map[int64]K{},
		persisting: map[int64]bool{},
	}
}

// mount registers the kind's routes; artifact serves one artifact.
func (r *resource[K, V]) mount(mux *http.ServeMux, artifact http.HandlerFunc) {
	base := "GET /v1/" + r.Plural
	mux.HandleFunc(base, r.handleList)
	mux.HandleFunc(base+"/{id}", r.handleGet)
	mux.HandleFunc(base+"/{id}/artifacts/{key}", artifact)
	mux.HandleFunc(base+"/{id}/events", r.handleEvents)
}

// parse reads the {id} path value, answering 400 when it is malformed.
func (r *resource[K, V]) parse(w http.ResponseWriter, req *http.Request) (K, bool) {
	id, err := r.Parse(req.PathValue("id"))
	if err != nil {
		var zero K
		r.Ref(zero).Write(w, http.StatusBadRequest, err.Error())
		return id, false
	}
	return id, true
}

func (r *resource[K, V]) register(key int64, id K) {
	r.mu.Lock()
	r.ids[key] = id
	r.mu.Unlock()
}

// cachedIDs lists the cached resources, most recently used first.
func (r *resource[K, V]) cachedIDs() []K {
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

// lookup is the memo half of the read path: a memo hit, else a store
// restore and a second look. Each hit counts as one cache hit or miss, so
// hits + misses stays balanced with the request count.
func (r *resource[K, V]) lookup(ctx context.Context, id K, artifact string) ([]byte, bool) {
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

// run resolves id to its live value: a cache hit, a join of the in-flight
// run, or a fresh execution of fn. ctx only bounds this caller's wait — the
// run itself is detached, so a run that loses its caller still completes,
// fills the cache and schedules its snapshot save. ran reports whether this
// call executed fn.
func (r *resource[K, V]) run(ctx context.Context, id K, fn func(context.Context, K) (V, error)) (V, bool, error) {
	key := r.Key(id)
	m := r.srv.metrics
	if v, ok := r.cache.Get(key); ok {
		m.cacheHits.Add(1)
		return v, false, nil
	}
	m.cacheMisses.Add(1)
	// Written by the flight goroutine; read only after its result arrives.
	ran := false
	ch := r.runs.DoChan(key, func() (any, error) {
		// Re-check under the flight: a run that completed between this
		// caller's miss and its flight creation has already filled the cache.
		if v, ok := r.cache.Get(key); ok {
			return v, nil
		}
		ran = true
		v, err := fn(r.srv.runContext(key), id)
		if err != nil {
			return nil, err
		}
		r.install(id, v)
		return v, nil
	})
	select {
	case <-ctx.Done():
		m.timeouts.Add(1)
		if r.runs.Inflight(key) {
			// The waiter gives up but the run keeps going: an orphaned run.
			m.orphanedRuns.Add(1)
			r.srv.opts.Logger.Warn("request abandoned in-flight run", r.Name, r.Format(id))
		}
		var zero V
		return zero, false, ctx.Err()
	case res := <-ch:
		if res.Shared {
			m.flightJoins.Add(1)
		}
		if res.Err != nil {
			var zero V
			return zero, false, res.Err
		}
		return res.Val.(V), ran && !res.Shared, nil
	}
}

// install caches a completed run, memoizes what it rendered, and schedules
// its write-behind.
func (r *resource[K, V]) install(id K, v V) {
	key := r.Key(id)
	r.cache.Put(key, v)
	if r.memo != nil {
		r.cache.MergeArtifacts(key, r.memo(v))
	}
	r.register(key, id)
	r.schedulePersist(id, v)
}

// ensure makes id servable warm: already cached, restored from the store,
// or — as the last resort — run.
func (r *resource[K, V]) ensure(ctx context.Context, id K) error {
	if !r.cache.Has(r.Key(id)) {
		r.restore(ctx, id)
	}
	if r.cache.Has(r.Key(id)) {
		return nil
	}
	_, _, err := r.run(ctx, id, r.start)
	return err
}

// restore is the store read-through for an id not yet cached. Concurrent
// callers collapse onto one load. It never fails the request: a missing,
// damaged or foreign snapshot is counted and degrades to "not restored".
func (r *resource[K, V]) restore(ctx context.Context, id K) {
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
			r.cache.InstallSnapshot(key, snap.Artifacts)
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
func (r *resource[K, V]) stored(ctx context.Context) []K {
	if r.store == nil {
		return nil
	}
	ids, _ := r.storedIDs(ctx)
	return ids
}

// handleList reports which resources are warm (cached, most recent first)
// and which are durable in the store. With ?limit= or ?cursor= it answers
// one paginated ascending list of their union plus a next_cursor.
func (r *resource[K, V]) handleList(w http.ResponseWriter, req *http.Request) {
	pr, err := ParsePage(req)
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
func (r *resource[K, V]) handleGet(w http.ResponseWriter, req *http.Request) {
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
