package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"soctap/internal/core"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// cacheFlags parses args as table-cache flags.
func cacheFlags(t *testing.T, args ...string) *CacheFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterCache(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// diskProbes gets one small table through cache and returns how many
// disk-tier probes that took: 0 for a cache held in memory alone.
func diskProbes(t *testing.T, cache *core.Cache) int64 {
	t.Helper()
	c := &soc.Core{Name: "a", Inputs: 8, ScanChains: []int{8}, Patterns: 4, CareDensity: 0.5, Seed: 1}
	sink := telemetry.New()
	if _, err := cache.GetInstrumentedContext(context.Background(), c, core.TableOptions{MaxWidth: 4}, sink); err != nil {
		t.Fatal(err)
	}
	cn := sink.Snapshot().Counters
	return cn["diskcache.hits"] + cn["diskcache.misses"]
}

func TestTableCacheErrors(t *testing.T) {
	warn := func(string) {}
	if _, err := cacheFlags(t, "-table-cache-mem", "12 parsecs").NewCache(warn); err == nil {
		t.Error("bad -table-cache-mem accepted")
	}
	if _, err := cacheFlags(t, "-table-cache", t.TempDir(), "-table-cache-size", "nope").NewCache(warn); err == nil {
		t.Error("bad -table-cache-size accepted")
	}
	if _, err := cacheFlags(t, "-table-cache-size", "1G").NewCache(warn); err == nil {
		t.Error("-table-cache-size without -table-cache accepted")
	}
	c, err := cacheFlags(t).NewCache(warn)
	if c == nil || err != nil {
		t.Fatalf("no cache flags: cache %v, err %v; want an in-memory cache", c, err)
	}
	if n := diskProbes(t, c); n != 0 {
		t.Errorf("no cache flags: %d disk probes; want no disk store", n)
	}
	c, err = cacheFlags(t, "-table-cache", t.TempDir(), "-table-cache-mem", "64M", "-table-cache-size", "1G").NewCache(warn)
	if c == nil || err != nil {
		t.Fatalf("valid cache flags: cache %v, err %v", c, err)
	}
	if n := diskProbes(t, c); n != 1 {
		t.Errorf("-table-cache: %d disk probes; want 1", n)
	}
}

// TestBuildConfigErrors holds socserve's cache-flag rows: it registers
// the table-cache flags through RegisterCache.
func TestBuildConfigErrors(t *testing.T) {
	warn := func(string) {}
	if _, err := cacheFlags(t, "-table-cache-mem", "12 parsecs").NewCache(warn); err == nil {
		t.Error("bad -table-cache-mem accepted")
	}
	if _, err := cacheFlags(t, "-table-cache-size", "1G").NewCache(warn); err == nil || !strings.Contains(err.Error(), "-table-cache-size") {
		t.Errorf("-table-cache-size without -table-cache: err %v; want one naming the flag", err)
	}
}

// TestRegisterFlags pins the shared flag set: eleven flags, every
// default empty or zero, and RegisterCache's three among them with the
// same help text.
func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) {
		names = append(names, f.Name)
		if f.DefValue != "" && f.DefValue != "0" && f.DefValue != "false" {
			t.Errorf("-%s defaults to %q", f.Name, f.DefValue)
		}
	})
	want := []string{"cpuprofile", "memprofile", "metrics-addr", "table-cache",
		"table-cache-mem", "table-cache-size", "telemetry", "telemetry-text", "trace", "workers"}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("flags %v, want %v", names, want)
	}
	cfs := flag.NewFlagSet("cache", flag.ContinueOnError)
	RegisterCache(cfs)
	cfs.VisitAll(func(f *flag.Flag) {
		if g := fs.Lookup(f.Name); g == nil || g.Usage != f.Usage {
			t.Errorf("-%s: cache-only help text differs from the shared one", f.Name)
		}
	})
}

// TestProgressDrainedBeforeEnd: the progress printer Start subscribes
// has printed every span that ended before End, in publish order, by
// the time End returns — however slowly it prints.
func TestProgressDrainedBeforeEnd(t *testing.T) {
	f := Register(flag.NewFlagSet("test", flag.ContinueOnError))
	var mu sync.Mutex
	var printed []string
	_, run := f.Start("test", func(path string, _ time.Duration) {
		time.Sleep(50 * time.Microsecond)
		mu.Lock()
		printed = append(printed, path)
		mu.Unlock()
	}, true)
	var ended []string
	for i := range 200 {
		path := fmt.Sprintf("phase%d", i%7)
		sp := run.Sink.Span(path)
		if i%3 == 0 {
			sp = sp.Child(fmt.Sprintf("core:%d", i))
			path = fmt.Sprintf("%s/core:%d", path, i)
		}
		sp.Begin().End()
		ended = append(ended, path)
	}
	run.End(nil)
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(printed, ended) {
		t.Fatalf("printed %d spans before End returned, want the %d ended, in order:\n got %v\nwant %v", len(printed), len(ended), printed, ended)
	}
}
