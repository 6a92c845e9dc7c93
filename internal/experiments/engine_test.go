package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"soctap/internal/core"
	"soctap/internal/telemetry"
)

// telemetryOf is the deterministic part of a sink's report: its
// counters and its span paths with their completion counts.
type telemetryOf struct {
	counters map[string]int64
	spans    map[string]int64
}

func observe(sink *telemetry.Sink) telemetryOf {
	sn := sink.Snapshot()
	got := telemetryOf{counters: sn.Counters, spans: make(map[string]int64)}
	var walk func(prefix string, spans []telemetry.SpanSnap)
	walk = func(prefix string, spans []telemetry.SpanSnap) {
		for _, sp := range spans {
			got.spans[prefix+sp.Name] = sp.Count
			walk(prefix+sp.Name+"/", sp.Children)
		}
	}
	walk("", sn.Spans)
	return got
}

// cheap runs the two cheapest table-building artifacts by name.
var cheap = map[string]func(*Engine, context.Context) error{
	"tab2": func(e *Engine, ctx context.Context) error { _, err := e.Tab2(ctx); return err },
	"fig3": func(e *Engine, ctx context.Context) error { _, err := e.Fig3(ctx); return err },
}

// TestEngineIsolation: two Engines, each with its own cache and sink,
// run Tab2 and Fig3 at once; each sink then reports exactly what a
// sequential run of its artifact on a fresh Engine reports. Run under
// -race, this is the check that no experiment state is shared. Fig3's
// sequential run is on an Engine without a cache, which must behave as
// a fresh cache and leave the Engine without one.
func TestEngineIsolation(t *testing.T) {
	want := make(map[string]telemetryOf)
	for name, art := range cheap {
		e := &Engine{Telemetry: telemetry.New()}
		if name == "tab2" {
			e.Cache = new(core.Cache)
		}
		if err := art(e, context.Background()); err != nil {
			t.Fatal(err)
		}
		if name == "fig3" && e.Cache != nil {
			t.Error("Fig3 installed a cache on an Engine without one")
		}
		want[name] = observe(e.Telemetry)
	}

	engines := make(map[string]*Engine)
	var wg sync.WaitGroup
	errs := make(chan error, len(cheap))
	for name, art := range cheap {
		e := &Engine{Cache: new(core.Cache), Telemetry: telemetry.New()}
		engines[name] = e
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- art(e, context.Background())
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, e := range engines {
		got := observe(e.Telemetry)
		if !reflect.DeepEqual(got.counters, want[name].counters) {
			t.Errorf("%s: concurrent counters %v, want the sequential %v", name, got.counters, want[name].counters)
		}
		if !reflect.DeepEqual(got.spans, want[name].spans) {
			t.Errorf("%s: concurrent spans %v, want the sequential %v", name, got.spans, want[name].spans)
		}
	}
}

// TestFreshEnginesCold: every fresh Engine builds its tables, and a
// second run on one Engine builds none.
func TestFreshEnginesCold(t *testing.T) {
	var built [2]int64
	for i := range built {
		e := &Engine{Cache: new(core.Cache), Telemetry: telemetry.New()}
		for run := 0; run < 2; run++ {
			if _, err := e.Tab2(context.Background()); err != nil {
				t.Fatal(err)
			}
			n := e.Telemetry.Counter("tables.built").Value()
			if run == 0 {
				built[i] = n
			} else if n != built[i] {
				t.Errorf("engine %d: second Tab2 built %d tables; want none", i, n-built[i])
			}
		}
	}
	if built[0] == 0 || built[0] != built[1] {
		t.Errorf("fresh engines built %d and %d tables; want the same non-zero count", built[0], built[1])
	}
}
