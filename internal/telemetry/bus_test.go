package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBusFIFO: a sequential publisher is observed in publish order.
func TestBusFIFO(t *testing.T) {
	s := New()
	sub := s.Subscribe(MaskCounter, 64)
	defer sub.Close()

	c := s.Counter("seq")
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	for i := 0; i < 10; i++ {
		select {
		case ev := <-sub.C():
			if ev.Kind != KindCounter || ev.Name != "seq" || ev.Value != int64(i+1) {
				t.Fatalf("event %d out of order: %+v", i, ev)
			}
			if ev.Delta != 1 || ev.TimeNs == 0 {
				t.Fatalf("event %d malformed: %+v", i, ev)
			}
		case <-time.After(time.Second):
			t.Fatalf("event %d never delivered", i)
		}
	}
}

// TestBusNeverBlocksPublisher: publishing into a subscriber that stopped
// reading drops (and counts) instead of blocking — the head-of-line fix
// the bus exists for. The publish loop itself is the assertion: with a
// blocking bus it would deadlock (the test would time out).
func TestBusNeverBlocksPublisher(t *testing.T) {
	s := New()
	sub := s.Subscribe(MaskCounter, 4) // reader never drains this
	defer sub.Close()

	const published = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := s.Counter("burst")
		for i := 0; i < published; i++ {
			c.Inc()
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a full subscription")
	}
	if got := sub.Dropped(); got != published-4 {
		t.Fatalf("subscription dropped %d events, want %d", got, published-4)
	}
	if got := s.EventsDropped(); got != published-4 {
		t.Fatalf("sink-wide drop count %d, want %d", got, published-4)
	}
	if sn := s.Snapshot(); sn.EventsDropped != published-4 {
		t.Fatalf("snapshot events_dropped %d, want %d", sn.EventsDropped, published-4)
	}
	if _, ok := s.Snapshot().Counters["telemetry.events_dropped"]; ok {
		t.Fatal("drop count leaked into the deterministic counter map")
	}
}

// TestBusMaskFiltering: a subscription receives only the kinds it asked
// for.
func TestBusMaskFiltering(t *testing.T) {
	s := New()
	sub := s.Subscribe(MaskRun|MaskGauge, 16)
	defer sub.Close()

	s.Counter("noise").Inc()
	s.Gauge("peak").Observe(7)
	s.PublishRun("test", "start")

	want := []EventKind{KindGauge, KindRun}
	for i, k := range want {
		select {
		case ev := <-sub.C():
			if ev.Kind != k {
				t.Fatalf("event %d kind %v, want %v", i, ev.Kind, k)
			}
		case <-time.After(time.Second):
			t.Fatalf("filtered event %d never delivered", i)
		}
	}
	select {
	case ev := <-sub.C():
		t.Fatalf("unexpected extra event: %+v", ev)
	default:
	}
}

// TestBusGaugePublishesOnlyRaises: observations that do not raise the
// maximum stay off the bus.
func TestBusGaugePublishesOnlyRaises(t *testing.T) {
	s := New()
	sub := s.Subscribe(MaskGauge, 16)
	defer sub.Close()
	g := s.Gauge("hw")
	g.Observe(10)
	g.Observe(3) // no raise: no event
	g.Observe(12)
	for i, want := range []int64{10, 12} {
		select {
		case ev := <-sub.C():
			if ev.Value != want {
				t.Fatalf("gauge event %d value %d, want %d", i, ev.Value, want)
			}
		case <-time.After(time.Second):
			t.Fatal("gauge raise never delivered")
		}
	}
	select {
	case ev := <-sub.C():
		t.Fatalf("non-raising observation published: %+v", ev)
	default:
	}
}

// TestBusNoSubscribersIsFree is the semantic half of the fast-path
// contract: with nobody subscribed nothing accumulates anywhere.
func TestBusNoSubscribersIsFree(t *testing.T) {
	s := New()
	if n := testing.AllocsPerRun(1000, func() {
		s.bus.publishSpan("x", time.Millisecond)
		s.bus.publishCounter("c", 1, 1)
	}); n != 0 {
		t.Fatalf("publish without subscribers allocates %v/op, want 0", n)
	}
	if s.EventsDropped() != 0 {
		t.Fatal("drops counted without subscribers")
	}
}

// TestSubscriptionCloseRace: concurrent publishers and a closing
// subscriber must not race (close happens under the bus write lock) —
// meaningful under -race.
func TestSubscriptionCloseRace(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Counter("race")
			for i := 0; i < 2000; i++ {
				c.Inc()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		sub := s.Subscribe(MaskAll, 8)
		time.Sleep(50 * time.Microsecond)
		sub.Close()
		sub.Close() // idempotent
	}
	wg.Wait()
}

// TestEventJSONRoundTrip: the NDJSON wire form keeps kind names and all
// populated fields.
func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{Kind: KindSpan, TimeNs: 12345, Name: "tables/core:a", DurNs: 99}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"kind":"span"`; !strings.Contains(string(data), want) {
		t.Fatalf("encoded event missing %s: %s", want, data)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if err := json.Unmarshal([]byte(`{"kind":"bogus"}`), &out); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
}
