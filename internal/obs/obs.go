// Package obs is the observability layer of the study pipeline: context-
// carried spans with nesting and attributes, a process-wide registry of
// per-stage duration histograms, and structured logging — all stdlib.
//
// The package is built around a strict no-op default: a context without a
// tracer costs nothing. obs.Start on a plain context returns the context
// unchanged and a nil *Span whose methods are all nil-receiver no-ops, so
// library users who never attach a tracer pay zero allocations per span
// (enforced by an allocation test). Attaching a tracer turns the same call
// sites into real instrumentation:
//
//	tr := obs.NewTracer(obs.Options{Collect: true, Stages: obs.Stages()})
//	ctx := obs.WithTracer(context.Background(), tr)
//	st, err := study.NewContext(ctx, 1)
//	tr.WriteChromeTrace(f)   // load in chrome://tracing or Perfetto
//	fmt.Print(tr.Tree())     // human-readable per-stage timing tree
package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Attrs are typed (string or int64) rather than
// carrying an interface value so that building them never boxes — the hot
// no-op path must not allocate.
type Attr struct {
	Key   string
	str   string
	num   int64
	isNum bool
}

// String builds a string-valued attribute.
func String(key, val string) Attr { return Attr{Key: key, str: val} }

// Int builds an integer-valued attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, num: val, isNum: true} }

// Value returns the attribute's value for exporters.
func (a Attr) Value() any {
	if a.isNum {
		return a.num
	}
	return a.str
}

// slogAttr converts to a slog attribute for the logging exporter.
func (a Attr) slogAttr() slog.Attr {
	if a.isNum {
		return slog.Int64(a.Key, a.num)
	}
	return slog.String(a.Key, a.str)
}

// Options configures a Tracer. The zero value records nothing but still
// threads span identity through contexts (useful to exercise the plumbing).
type Options struct {
	// Collect retains every finished span for the exporters (Tree,
	// WriteChromeTrace, Records). Leave false for metrics-only tracing where
	// span records would accumulate without bound across pipeline runs.
	Collect bool
	// MaxSpans head-samples a collecting tracer: once this many spans have
	// been retained, further spans still feed the stage histograms and the
	// logger but are not kept for the exporters (0 = unlimited). Dropped
	// spans count into Dropped and the process-wide DroppedSpansTotal, so a
	// truncated /debug/trace is detectable rather than silently short.
	MaxSpans int
	// Stages receives one duration observation per finished span, keyed by
	// span name. Use Stages() for the process-wide default registry.
	Stages *StageRegistry
	// Logger, when set, emits one debug line per finished span with the
	// span's name, duration and attributes.
	Logger *slog.Logger
	// Bus, when set, receives a live start and end event per span while the
	// bus has subscribers. An idle bus costs one atomic load per span, so
	// production tracers attach it unconditionally.
	Bus *Bus
	// Seed is the correlation key stamped on every event this tracer
	// publishes (the corpus seed of the run; 0 = unkeyed).
	Seed int64
}

// Tracer owns the spans of one (or several sequential) pipeline runs. All
// methods are safe for concurrent use; the pipeline fans out per-project
// work and the spans arrive from many goroutines.
type Tracer struct {
	collect  bool
	maxSpans int
	stages   *StageRegistry
	logger   *slog.Logger

	bus  *Bus
	seed int64

	epoch   time.Time
	nextID  atomic.Int64
	dropped atomic.Int64
	now     func() time.Time // test seam

	// pubMu makes numbering and publishing one step, so every subscriber
	// receives this tracer's events in seq order. Only taken while the bus
	// has a subscriber.
	pubMu    sync.Mutex
	eventSeq int64 // live-event publication sequence, 1-based; guarded by pubMu

	mu      sync.Mutex
	records []Record
}

// NewTracer builds a tracer from opts. The tracer's epoch (the zero point
// of exported timestamps) is the construction time.
func NewTracer(opts Options) *Tracer {
	t := &Tracer{
		collect:  opts.Collect,
		maxSpans: opts.MaxSpans,
		stages:   opts.Stages,
		logger:   opts.Logger,
		bus:      opts.Bus,
		seed:     opts.Seed,
		now:      time.Now,
	}
	t.epoch = t.now()
	return t
}

// Record is one finished span, as retained by a collecting tracer.
type Record struct {
	Name   string
	ID     int64
	Parent int64 // 0 = top level
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Duration is the span's wall-clock length.
func (r Record) Duration() time.Duration { return r.End.Sub(r.Start) }

// Records returns a copy of the finished spans collected so far.
func (t *Tracer) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Record(nil), t.records...)
}

// Dropped reports how many spans the head-sampling bound (Options.MaxSpans)
// discarded on this tracer.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// droppedSpansTotal accumulates head-sampled drops across every tracer in
// the process, for the /metrics exposition.
var droppedSpansTotal atomic.Int64

// DroppedSpansTotal reports the process-wide count of spans discarded by
// head sampling since startup.
func DroppedSpansTotal() int64 { return droppedSpansTotal.Load() }

// Span is one in-progress pipeline stage. A nil *Span (returned by Start on
// an un-traced context) is valid: every method is a no-op.
type Span struct {
	tracer *Tracer
	name   string
	id     int64
	parent int64
	depth  int32
	start  time.Time
	attrs  []Attr
}

// spanKey carries the current span through contexts.
type spanKey struct{}

// WithTracer attaches a tracer to ctx. Spans started from the returned
// context (and its descendants) record into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	// The sentinel root span anchors the parent chain; it is never ended and
	// never exported. Top-level spans report parent id 0.
	return context.WithValue(ctx, spanKey{}, &Span{tracer: t, id: 0, start: t.epoch})
}

// Tracing reports whether ctx carries a tracer — callers can skip building
// expensive attributes when it does not.
func Tracing(ctx context.Context) bool {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp != nil
}

// Start opens a span named name as a child of the current span in ctx. When
// ctx carries no tracer it returns ctx unchanged and a nil span; the fast
// path performs no allocation.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	t := parent.tracer
	sp := &Span{
		tracer: t,
		name:   name,
		id:     t.nextID.Add(1),
		parent: parent.id,
		depth:  parent.depth + 1,
		start:  t.now(),
	}
	if len(attrs) > 0 {
		sp.attrs = append(sp.attrs, attrs...)
	}
	if t.bus != nil && t.bus.Active() {
		t.publish(Event{
			Span:   name,
			ID:     sp.id,
			Parent: sp.parent,
			Depth:  int(sp.depth),
		})
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// publish stamps ev with the tracer's seed and next seq and hands it to the
// bus under pubMu, so no other event of this tracer can overtake it.
func (t *Tracer) publish(ev Event) {
	ev.Seed = t.seed
	t.pubMu.Lock()
	t.eventSeq++
	ev.Seq = t.eventSeq
	t.bus.Publish(ev)
	t.pubMu.Unlock()
}

// SetAttr appends attributes to the span (typically results known only at
// the end of the stage: counts, byte totals, derived values).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span: the stage registry observes its duration, the logger
// (if any) emits a line, and a collecting tracer retains the record.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	end := t.now()
	d := end.Sub(s.start)
	if t.stages != nil {
		t.stages.Observe(s.name, d)
	}
	if t.bus != nil && t.bus.Active() {
		t.publish(Event{
			Span:    s.name,
			ID:      s.id,
			Parent:  s.parent,
			Depth:   int(s.depth),
			End:     true,
			Elapsed: d,
			Attrs:   s.attrs,
		})
	}
	if t.logger != nil && t.logger.Enabled(context.Background(), slog.LevelDebug) {
		args := make([]slog.Attr, 0, len(s.attrs)+1)
		args = append(args, slog.Duration("dur", d))
		for _, a := range s.attrs {
			args = append(args, a.slogAttr())
		}
		t.logger.LogAttrs(context.Background(), slog.LevelDebug, "stage "+s.name, args...)
	}
	if t.collect {
		rec := Record{
			Name:   s.name,
			ID:     s.id,
			Parent: s.parent,
			Start:  s.start,
			End:    end,
			Attrs:  s.attrs,
		}
		t.mu.Lock()
		if t.maxSpans > 0 && len(t.records) >= t.maxSpans {
			t.mu.Unlock()
			// Head sampling: the first MaxSpans spans win. Metrics and logs
			// above already saw this one; only the exported record is dropped.
			t.dropped.Add(1)
			droppedSpansTotal.Add(1)
			return
		}
		t.records = append(t.records, rec)
		t.mu.Unlock()
	}
}
