package telemetry

// The event bus is the live side of the telemetry layer: where the
// Snapshot answers "what has happened so far", the bus answers "what is
// happening right now". Instruments publish typed events — span ends,
// counter deltas, gauge raises, run lifecycle marks — and any number of
// subscribers consume them through bounded rings.
//
// The bus never blocks a publisher. Publishing into a subscriber whose
// ring is full drops the event and counts the drop (per subscription and
// bus-wide, surfaced as Snapshot.EventsDropped and the
// telemetry.events_dropped series on /metrics). A stalled /events
// client or a slow progress printer therefore costs the pipeline
// nothing beyond one failed channel send; it can never serialize worker
// span-Ends. With no subscribers the publish path is a single atomic
// load.
//
// Delivery within one subscription is FIFO, so a sequential producer
// (e.g. a single-worker run ending spans one by one) is observed in
// exactly the order it published. Events carry wall-clock timestamps
// and are excluded from the worker-count determinism guarantee.

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind discriminates the typed events on the bus.
type EventKind uint8

const (
	// KindSpan is a span End: Name is the span's "/"-joined path,
	// DurNs the interval's duration.
	KindSpan EventKind = iota
	// KindCounter is a counter increment: Delta the increment, Value
	// the counter's new total.
	KindCounter
	// KindGauge is a gauge raise: Value the new maximum. Observations
	// that do not raise the maximum publish nothing.
	KindGauge
	// KindRun is a run lifecycle mark (start/done/cancelled, or an
	// experiment boundary): Name identifies the run, Label the state.
	KindRun

	numEventKinds
)

var eventKindNames = [numEventKinds]string{"span", "counter", "gauge", "run"}

// String returns the wire name of the kind ("span", "counter", "gauge",
// "run").
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// EventMask selects which kinds a subscription receives.
type EventMask uint8

const (
	MaskSpan    EventMask = 1 << EventKind(KindSpan)
	MaskCounter EventMask = 1 << EventKind(KindCounter)
	MaskGauge   EventMask = 1 << EventKind(KindGauge)
	MaskRun     EventMask = 1 << EventKind(KindRun)
	MaskAll     EventMask = MaskSpan | MaskCounter | MaskGauge | MaskRun
)

func (k EventKind) mask() EventMask { return 1 << k }

// Event is one bus message. The zero fields of the kinds that do not
// use them are omitted from the JSON encoding, which is the NDJSON line
// layout of the /events endpoint.
type Event struct {
	Kind   EventKind
	TimeNs int64  // wall clock, Unix nanoseconds, stamped at publish
	Name   string // span path, counter/gauge name, or run name
	Delta  int64  // counter increment
	Value  int64  // counter total / gauge maximum
	DurNs  int64  // span interval duration
	Label  string // run lifecycle state
}

// eventJSON is the wire layout of one event (Kind rendered by name).
type eventJSON struct {
	Kind   string `json:"kind"`
	TimeNs int64  `json:"time_unix_ns"`
	Name   string `json:"name"`
	Delta  int64  `json:"delta,omitempty"`
	Value  int64  `json:"value,omitempty"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	Label  string `json:"label,omitempty"`
}

// MarshalJSON encodes the event as one NDJSON object with the kind
// spelled out ("span", "counter", ...).
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Kind: e.Kind.String(), TimeNs: e.TimeNs, Name: e.Name,
		Delta: e.Delta, Value: e.Value, DurNs: e.DurNs, Label: e.Label,
	})
}

// UnmarshalJSON decodes an event encoded by MarshalJSON. Unknown kinds
// are an error.
func (e *Event) UnmarshalJSON(data []byte) error {
	var je eventJSON
	if err := json.Unmarshal(data, &je); err != nil {
		return err
	}
	kind := EventKind(0)
	found := false
	for k, name := range eventKindNames {
		if name == je.Kind {
			kind, found = EventKind(k), true
			break
		}
	}
	if !found {
		return fmt.Errorf("telemetry: unknown event kind %q", je.Kind)
	}
	*e = Event{Kind: kind, TimeNs: je.TimeNs, Name: je.Name,
		Delta: je.Delta, Value: je.Value, DurNs: je.DurNs, Label: je.Label}
	return nil
}

// Subscription is one bounded ring on the bus. Read events from C();
// Close when done. Events that arrive while the ring is full are
// dropped (counted by Dropped), never queued against the publisher.
type Subscription struct {
	bus     *bus
	mask    EventMask
	ch      chan Event
	dropped atomic.Int64
	closed  bool // guarded by bus.mu
}

// C returns the subscription's event channel. The channel is closed by
// Close (after delivering anything still buffered); nil on a nil
// subscription.
func (sub *Subscription) C() <-chan Event {
	if sub == nil {
		return nil
	}
	return sub.ch
}

// Dropped reports how many events were dropped because this
// subscription's ring was full; zero on nil.
func (sub *Subscription) Dropped() int64 {
	if sub == nil {
		return 0
	}
	return sub.dropped.Load()
}

// Close detaches the subscription from the bus and closes its channel.
// Buffered events remain readable until the channel drains. Safe to
// call more than once and on nil.
func (sub *Subscription) Close() {
	if sub == nil {
		return
	}
	b := sub.bus
	b.mu.Lock()
	if sub.closed {
		b.mu.Unlock()
		return
	}
	sub.closed = true
	for i, x := range b.subs {
		if x == sub {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	// Publishers send under the bus read-lock, so holding the write
	// lock here guarantees no send races the close.
	close(sub.ch)
	b.mu.Unlock()
	b.nsubs.Add(-1)
}

// bus is the multi-subscriber fan-out. The zero value is ready to use;
// every Sink embeds one.
type bus struct {
	nsubs   atomic.Int32 // fast no-subscriber publish path
	dropped atomic.Int64 // bus-wide drop total

	mu   sync.RWMutex
	subs []*Subscription
}

// subscribe attaches a ring of buf events receiving the kinds in mask.
func (b *bus) subscribe(mask EventMask, buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	sub := &Subscription{bus: b, mask: mask, ch: make(chan Event, buf)}
	b.mu.Lock()
	b.subs = append(b.subs, sub)
	b.mu.Unlock()
	b.nsubs.Add(1)
	return sub
}

// active reports whether any subscription is attached — the publishers'
// one-atomic-load fast path.
func (b *bus) active() bool { return b != nil && b.nsubs.Load() > 0 }

// publish fans the event out to every matching subscription without
// ever blocking: a full ring drops the event and counts the drop.
func (b *bus) publish(ev Event) {
	if !b.active() {
		return
	}
	m := ev.Kind.mask()
	b.mu.RLock()
	for _, sub := range b.subs {
		if sub.mask&m == 0 {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.RUnlock()
}

// publishSpan, publishCounter, publishGauge and publishRun stamp the
// wall clock only after the no-subscriber check, so idle buses never
// read the clock.

func (b *bus) publishSpan(path string, d time.Duration) {
	if !b.active() {
		return
	}
	b.publish(Event{Kind: KindSpan, TimeNs: time.Now().UnixNano(), Name: path, DurNs: int64(d)})
}

func (b *bus) publishCounter(name string, delta, total int64) {
	if !b.active() {
		return
	}
	b.publish(Event{Kind: KindCounter, TimeNs: time.Now().UnixNano(), Name: name, Delta: delta, Value: total})
}

func (b *bus) publishGauge(name string, v int64) {
	if !b.active() {
		return
	}
	b.publish(Event{Kind: KindGauge, TimeNs: time.Now().UnixNano(), Name: name, Value: v})
}

func (b *bus) publishRun(name, state string) {
	if !b.active() {
		return
	}
	b.publish(Event{Kind: KindRun, TimeNs: time.Now().UnixNano(), Name: name, Label: state})
}

// Subscribe attaches a bounded subscription to the sink's event bus,
// receiving the kinds selected by mask through a ring of buf events
// (minimum 1). Publishers never block on it: events arriving while the
// ring is full are dropped and counted. Returns nil on a nil sink.
func (s *Sink) Subscribe(mask EventMask, buf int) *Subscription {
	if s == nil {
		return nil
	}
	return s.bus.subscribe(mask, buf)
}

// EventsDropped reports the total events dropped across all of the
// sink's subscriptions (a wall-clock accident, excluded from the
// determinism guarantee); zero on nil.
func (s *Sink) EventsDropped() int64 {
	if s == nil {
		return 0
	}
	return s.bus.dropped.Load()
}

// PublishRun emits a run lifecycle event (KindRun) on the bus: name
// identifies the run ("repro", "experiment:tab3"), state its transition
// ("start", "done", "cancelled"). No-op on a nil sink.
func (s *Sink) PublishRun(name, state string) {
	if s == nil {
		return
	}
	s.bus.publishRun(name, state)
}
