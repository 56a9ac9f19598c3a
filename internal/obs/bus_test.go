package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// collect drains every event currently buffered on sub without blocking.
func collectBuffered(sub *Subscriber) []Event {
	var out []Event
	for {
		select {
		case ev := <-sub.C():
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestBusPublishReachesSubscriber(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(7, 8)
	defer sub.Close()

	b.Publish(Event{Seed: 7, Seq: 1, Span: "a"})
	b.Publish(Event{Seed: 7, Seq: 2, Span: "a", End: true, Elapsed: time.Millisecond})

	evs := collectBuffered(sub)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].End || !evs[1].End {
		t.Errorf("phase order wrong: %+v", evs)
	}
	if got := b.PublishedTotal(); got != 2 {
		t.Errorf("PublishedTotal = %d, want 2", got)
	}
}

func TestBusSeedFilter(t *testing.T) {
	b := NewBus()
	only5 := b.Subscribe(5, 8)
	defer only5.Close()
	firehose := b.Subscribe(0, 8)
	defer firehose.Close()

	b.Publish(Event{Seed: 5, Seq: 1})
	b.Publish(Event{Seed: 9, Seq: 1})
	b.Publish(Event{Seed: 0, Seq: 1}) // seed-less (render-time) span

	if got := len(collectBuffered(only5)); got != 1 {
		t.Errorf("seed-5 subscriber saw %d events, want 1", got)
	}
	if got := len(collectBuffered(firehose)); got != 3 {
		t.Errorf("firehose saw %d events, want 3", got)
	}
}

func TestBusDropOldestKeepsTail(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(1, 4)
	defer sub.Close()

	for seq := int64(1); seq <= 10; seq++ {
		b.Publish(Event{Seed: 1, Seq: seq})
	}

	evs := collectBuffered(sub)
	if len(evs) != 4 {
		t.Fatalf("ring held %d events, want 4", len(evs))
	}
	// Drop-oldest keeps the most recent progress: seq 7..10.
	for i, ev := range evs {
		if want := int64(7 + i); ev.Seq != want {
			t.Errorf("evs[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if got := sub.Dropped(); got != 6 {
		t.Errorf("subscriber Dropped = %d, want 6", got)
	}
	if got := b.DroppedTotal(); got != 6 {
		t.Errorf("bus DroppedTotal = %d, want 6", got)
	}
}

func TestBusIdlePublishIsFreeAndAllocFree(t *testing.T) {
	b := NewBus()
	allocs := testing.AllocsPerRun(100, func() {
		b.Publish(Event{Seed: 1, Seq: 1, Span: "x"})
	})
	if allocs != 0 {
		t.Errorf("idle Publish allocates %v times per call, want 0", allocs)
	}
	if got := b.PublishedTotal(); got != 0 {
		t.Errorf("idle publishes counted: PublishedTotal = %d, want 0", got)
	}
}

func TestSubscriberCloseIsIdempotentAndDetaches(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(1, 4)
	sub.Close()
	sub.Close() // must not panic
	if b.Active() {
		t.Error("bus still active after last subscriber closed")
	}
	b.Publish(Event{Seed: 1, Seq: 1}) // must not panic or reach the closed channel
	if _, ok := <-sub.C(); ok {
		t.Error("closed subscriber channel yielded an event")
	}
}

// TestTracerPublishesSpanEvents drives the bus through the real tracer
// integration: nested spans publish start and end events with seed, depth,
// parentage and (on end only) elapsed time and attributes.
func TestTracerPublishesSpanEvents(t *testing.T) {
	bus := NewBus()
	sub := bus.Subscribe(42, 64)
	defer sub.Close()

	tr := NewTracer(Options{Bus: bus, Seed: 42})
	ctx := WithTracer(context.Background(), tr)

	ctx1, outer := Start(ctx, "outer")
	_, inner := Start(ctx1, "inner")
	inner.SetAttr(Int("rows", 3))
	inner.End()
	outer.End()

	evs := collectBuffered(sub)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (start/start/end/end)", len(evs))
	}
	for i, ev := range evs {
		if ev.Seed != 42 {
			t.Errorf("evs[%d].Seed = %d, want 42", i, ev.Seed)
		}
		if ev.Seq != int64(i+1) {
			t.Errorf("evs[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	if evs[0].Span != "outer" || evs[0].End || evs[0].Depth != 1 {
		t.Errorf("bad outer start: %+v", evs[0])
	}
	if evs[1].Span != "inner" || evs[1].Depth != 2 || evs[1].Parent != evs[0].ID {
		t.Errorf("bad inner start: %+v", evs[1])
	}
	if len(evs[0].Attrs) != 0 || len(evs[1].Attrs) != 0 {
		t.Error("start events must not carry attrs")
	}
	if !evs[2].End || evs[2].Span != "inner" {
		t.Errorf("bad inner end: %+v", evs[2])
	}
	if len(evs[2].Attrs) != 1 || evs[2].Attrs[0].Key != "rows" {
		t.Errorf("inner end attrs = %+v, want rows", evs[2].Attrs)
	}
	if !evs[3].End || evs[3].Span != "outer" || evs[3].Elapsed <= 0 {
		t.Errorf("bad outer end: %+v", evs[3])
	}
}

// TestBusConcurrentChurn hammers publish against subscribe/close churn; its
// value is under -race, where any unlocked map access or send-on-closed
// bug surfaces immediately.
func TestBusConcurrentChurn(t *testing.T) {
	b := NewBus()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var seq int64
			for {
				select {
				case <-stop:
					return
				default:
					seq++
					b.Publish(Event{Seed: seed, Seq: seq})
				}
			}
		}(int64(p % 2))
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub := b.Subscribe(seed, 8)
				for j := 0; j < 20; j++ {
					select {
					case <-sub.C():
					default:
					}
				}
				sub.Close()
			}
		}(int64(c % 3))
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if b.Active() {
		t.Error("subscribers leaked")
	}
}

// BenchmarkSpanPublish pins the span-event overhead in both bus states. The
// no-subscriber case is the production idle path — one atomic load per
// Publish gate, no Event built — and must stay allocation-free; the
// one-subscriber case is the cost while somebody watches.
func BenchmarkSpanPublish(b *testing.B) {
	b.Run("no-bus", func(b *testing.B) { // control: the tracer's own span cost
		tr := NewTracer(Options{})
		ctx := WithTracer(context.Background(), tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, sp := Start(ctx, "bench.span")
			sp.End()
		}
	})
	b.Run("no-subscriber", func(b *testing.B) {
		bus := NewBus()
		tr := NewTracer(Options{Bus: bus, Seed: 1})
		ctx := WithTracer(context.Background(), tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, sp := Start(ctx, "bench.span")
			sp.End()
		}
	})
	b.Run("one-subscriber", func(b *testing.B) {
		bus := NewBus()
		sub := bus.Subscribe(1, DefaultEventBuffer)
		defer sub.Close()
		go func() {
			for range sub.C() {
			}
		}()
		tr := NewTracer(Options{Bus: bus, Seed: 1})
		ctx := WithTracer(context.Background(), tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, sp := Start(ctx, "bench.span")
			sp.End()
		}
	})
}

// TestSpanEventsArriveInSeqOrder: spans that start and end together on two
// goroutines of one tracer must reach a subscriber in seq order. A client
// resumes after the last seq it received, so an event that arrives after a
// higher seq is lost on reconnect.
func TestSpanEventsArriveInSeqOrder(t *testing.T) {
	const workers, spans = 2, 20000
	bus := NewBus()
	sub := bus.Subscribe(1, workers*spans*2) // room for every event: no drops
	defer sub.Close()
	tr := NewTracer(Options{Bus: bus, Seed: 1})
	ctx := WithTracer(context.Background(), tr)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				_, sp := Start(ctx, "order.span")
				sp.End()
			}
		}()
	}
	wg.Wait()

	evs := collectBuffered(sub)
	if len(evs) != workers*spans*2 {
		t.Fatalf("got %d events, want %d", len(evs), workers*spans*2)
	}
	var last int64
	inversions := 0
	for _, ev := range evs {
		if ev.Seq <= last {
			inversions++
		}
		last = ev.Seq
	}
	if inversions > 0 {
		t.Errorf("%d of %d events arrived with a seq no higher than the one before", inversions, len(evs))
	}
}
