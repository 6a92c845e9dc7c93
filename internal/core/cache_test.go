package core

// Tests for the cache tiers: the one disk format and layout, the
// bounded disk store, the exact LRU memory budget, what a resident table
// keeps alive, and the format on the paper's benchmark cores.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// gobEntry is a gob stream in the shape of the first revision's cache
// entries (a struct with Version and Key fields), whose reader is gone.
const gobEntry = "*\x7f\x03\x01\x01\tdiskEntry\x01\xff\x80\x00\x01\x02\x01\aVersion\x01\f\x00\x01\x03Key\x01\f\x00\x00\x00\x1b\xff\x80\x01\x13soctap-diskcache-v1\x01\x01k\x00"

// v2Entry is a table entry in the second revision's bitpacked container
// (magic "STC2"), whose reader is gone: compressibleCore(12)'s table at
// MaxWidth 3.
const v2Entry = "STC2\x02\x00\x00\x00S\x00\x00\x00\x02\x00\x00\x00\a\x00\x00\x00\xc0\x00\x00\x00M\x7f\x99\x11n\xf7\x18\xf1\x0fsoctap-table-v2@848e7166c52a5a3d3db8394da0c985f47d08ae162c45937b73ced4a405dca69d\x03`\x00\x06selenc\x10\x02\x00T\xc0\xc0T\x10\x01\x00\x80\b\x10\x03\x00\x10\r\xc0\x00\f\xd1\x10\x03\x00\x10\r@\x00\x04\xd1\x10\x00\x00\x10\x00\b\x01\xba\xcd\x02\x02\xf6\xa6\x01\x03\x8ep\a\xba\xcd\x02\v\xba\xcd\x02\r\xba\xcd\x02\x0e\xf6\xa6\x01\x0f\x8ep\x10\x00\b\x01\xa8\xc0\x02\x02\xa8\xc0\x02\x03\xa2\xc2\x02\a\xf8\xc0\a\v\xf8\xc0\a\r\xa8\xc0\x02\x0e\xa8\xc0\x02\x0f\xa2\xc2\x02"

// TestDiskCacheV1Migration: the first revision's entries are not
// migrated but rebuilt. A file at the flat <dir>/<key>.table path is
// never read or indexed — the Get is a plain disk miss and one build,
// the entry lands at the sharded path, and the flat file is left
// alone — and a gob stream at the sharded path is a corrupt entry,
// counted and rebuilt.
func TestDiskCacheV1Migration(t *testing.T) {
	dir := t.TempDir()
	c := compressibleCore(21)
	opts := TableOptions{MaxWidth: 10}
	key := contentKey(c, opts.normalized())
	flat := filepath.Join(dir, key+".table")
	if err := os.WriteFile(flat, []byte(gobEntry), 0o644); err != nil {
		t.Fatal(err)
	}

	getCounting := func(t *testing.T) (*Table, int64, map[string]int64) {
		t.Helper()
		var cc Cache
		cc.SetDir(dir)
		var builds atomic.Int64
		cc.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
		sink := telemetry.New()
		tab, err := cc.get(context.Background(), compressibleCore(21), opts, sink)
		if err != nil {
			t.Fatal(err)
		}
		return tab, builds.Load(), sink.Snapshot().Counters
	}

	built, n, cn := getCounting(t)
	if n != 1 || cn["diskcache.misses"] != 1 || cn["diskcache.hits"] != 0 || cn["diskcache.corrupt_rebuilds"] != 0 {
		t.Errorf("flat file only: %d builds, counters %v; want 1 build and one disk miss", n, cn)
	}
	data, err := os.ReadFile(diskPath(dir, key))
	if err != nil {
		t.Fatalf("no entry at the sharded path: %v", err)
	}
	if _, err := decodeEntry(data, key, opts.normalized()); err != nil {
		t.Errorf("written entry does not decode: %v", err)
	}
	if got, err := os.ReadFile(flat); err != nil || string(got) != gobEntry {
		t.Errorf("flat file touched (err=%v)", err)
	}
	ds := newDiskStore(dir, 1<<30)
	ds.mu.Lock()
	ds.scanLocked()
	indexed := ds.entries
	ds.mu.Unlock()
	if len(indexed) != 1 || indexed[key].path != diskPath(dir, key) {
		t.Errorf("disk index %v, want only the sharded entry", indexed)
	}

	// A second Cache on the directory: a plain hit.
	loaded, n, cn := getCounting(t)
	if n != 0 || cn["diskcache.hits"] != 1 {
		t.Errorf("second cache: %d builds, counters %v; want a plain hit", n, cn)
	}
	if !reflect.DeepEqual(built, loaded) {
		t.Error("loaded table differs from the built table")
	}

	// A gob stream at the sharded path is corrupt: counted, rebuilt.
	if err := os.WriteFile(diskPath(dir, key), []byte(gobEntry), 0o644); err != nil {
		t.Fatal(err)
	}
	_, n, cn = getCounting(t)
	if n != 1 || cn["diskcache.corrupt_rebuilds"] != 1 {
		t.Errorf("gob entry: %d builds, counters %v; want 1 build and one corrupt rebuild", n, cn)
	}
}

// TestFormatV2MatchesV1OnBenchmarks is the decode check on real cores,
// under the name it had when it held the second format to the first:
// every d695 and industrial table at MaxWidth 64, with its golden
// case's options, decodes from its entry, in memory and through the
// disk store, DeepEqual to its build.
func TestFormatV2MatchesV1OnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full-benchmark format sweep")
	}
	for _, gc := range goldenCases() {
		c, opts := gc.core, gc.opts.normalized()
		t.Run(c.Name, func(t *testing.T) {
			if opts.MaxWidth != 64 {
				t.Fatalf("MaxWidth %d, want 64", opts.MaxWidth)
			}
			built, err := BuildTable(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := contentKey(c, opts)
			mem, err := decodeEntry(encodeEntry(key, built), key, opts)
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			dir := t.TempDir()
			if err := storeDiskTable(dir, key, built); err != nil {
				t.Fatal(err)
			}
			disk, status, reason := loadDiskTable(dir, key, opts)
			if status != diskHit {
				t.Fatalf("disk load: status %v (%v)", status, reason)
			}
			for name, got := range map[string]*Table{"memory": mem, "disk": disk} {
				if !reflect.DeepEqual(built, got) {
					t.Errorf("%s-decoded table differs from the built table", name)
				}
			}
		})
	}
}

// TestDiskCacheSizeBound: with -table-cache-size in force the store
// evicts oldest-access entries so the directory never exceeds the
// budget, and counts what it did.
func TestDiskCacheSizeBound(t *testing.T) {
	dir := t.TempDir()
	opts := TableOptions{MaxWidth: 8}

	// Size one entry to pick a cap that fits exactly two.
	probe := compressibleCore(100)
	built, err := BuildTable(probe, opts)
	if err != nil {
		t.Fatal(err)
	}
	entrySize := int64(len(encodeEntry(contentKey(probe, opts.normalized()), built)))

	var cache Cache
	cache.SetDir(dir)
	cache.SetDiskLimit(2*entrySize + entrySize/2)
	sink := telemetry.New()
	var lastKey string
	for seed := int64(101); seed <= 105; seed++ {
		c := compressibleCore(seed)
		if _, err := cache.get(context.Background(), c, opts, sink); err != nil {
			t.Fatal(err)
		}
		lastKey = contentKey(c, opts.normalized())
	}

	files := cacheDirEntries(t, dir)
	var total int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 2*entrySize+entrySize/2 {
		t.Errorf("store holds %d bytes, budget %d", total, 2*entrySize+entrySize/2)
	}
	if len(files) > 2 {
		t.Errorf("%d entries survived a two-entry budget", len(files))
	}
	cn := sink.Snapshot().Counters
	if cn["diskcache.evictions"] < 3 {
		t.Errorf("diskcache.evictions = %d, want >= 3 (counters: %v)", cn["diskcache.evictions"], cn)
	}
	if got := cn["diskcache.bytes"]; got != total {
		t.Errorf("diskcache.bytes = %d, want the %d resident bytes (net of evictions)", got, total)
	}
	// The most recently stored entry must have survived.
	if _, err := os.Stat(diskPath(dir, lastKey)); err != nil {
		t.Errorf("most recent entry was evicted: %v", err)
	}

	// A restarting process (fresh index, built by directory scan) keeps
	// enforcing the budget.
	var second Cache
	second.SetDir(dir)
	second.SetDiskLimit(entrySize + entrySize/2)
	sink2 := telemetry.New()
	if _, err := second.get(context.Background(), compressibleCore(106), opts, sink2); err != nil {
		t.Fatal(err)
	}
	files = cacheDirEntries(t, dir)
	if len(files) > 1 {
		t.Errorf("%d entries survived a one-entry budget after restart", len(files))
	}
}

// TestCacheMemBound: a memory budget smaller than one table still
// caches nothing permanently — every Get past the first rebuilds — and
// the accounting returns to zero; without a budget the second Get is a
// pure memory hit.
func TestCacheMemBound(t *testing.T) {
	c := compressibleCore(41)
	opts := TableOptions{MaxWidth: 8}

	var bounded Cache
	bounded.SetMemLimit(1)
	var builds atomic.Int64
	bounded.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
	sink := telemetry.New()
	first, err := bounded.get(context.Background(), c, opts, sink)
	if err != nil {
		t.Fatal(err)
	}
	second, err := bounded.get(context.Background(), c, opts, sink)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("%d builds under a 1-byte budget, want 2 (nothing may stay resident)", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("rebuilt table differs")
	}
	cn := sink.Snapshot().Counters
	if cn["cache.evictions"] != 2 {
		t.Errorf("cache.evictions = %d, want 2", cn["cache.evictions"])
	}
	if cn["cache.bytes"] != 0 {
		t.Errorf("cache.bytes = %d, want 0 after self-eviction", cn["cache.bytes"])
	}

	// Ample budget: entries stay resident and accounting matches the
	// estimator.
	var roomy Cache
	roomy.SetMemLimit(64 << 20)
	var builds2 atomic.Int64
	roomy.buildHook = func(*soc.Core, TableOptions) { builds2.Add(1) }
	sink2 := telemetry.New()
	if _, err := roomy.get(context.Background(), c, opts, sink2); err != nil {
		t.Fatal(err)
	}
	tab, err := roomy.get(context.Background(), c, opts, sink2)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds2.Load(); n != 1 {
		t.Errorf("%d builds with an ample budget, want 1", n)
	}
	cn2 := sink2.Snapshot().Counters
	if cn2["cache.evictions"] != 0 || cn2["cache.bytes"] != tableMemBytes(tab) {
		t.Errorf("ample-budget accounting: %v, want 0 evictions and bytes = %d", cn2, tableMemBytes(tab))
	}
}

// TestCacheMemBoundEvictsLRU: the memory budget is one exact LRU over
// every resident table. Under a two-table budget, touching a before c
// is built evicts b, not a; under an eight-table budget, two cores
// alternating three times build twice — nothing is evicted while the
// resident total fits.
func TestCacheMemBoundEvictsLRU(t *testing.T) {
	opts := TableOptions{MaxWidth: 8}
	probe, err := BuildTable(compressibleCore(200), opts)
	if err != nil {
		t.Fatal(err)
	}
	size := tableMemBytes(probe) // the same for every core at one MaxWidth

	rows := []struct {
		name   string
		tables int64  // budget, in tables
		gets   []int  // core index of each Get, in order
		builds []bool // whether each Get builds
	}{
		{"two-table budget: a, b, touch a, c, then a and b", 2,
			[]int{0, 1, 0, 2, 0, 1},
			[]bool{true, true, false, true, false, true}},
		{"eight-table budget: two cores alternating three times", 8,
			[]int{0, 1, 0, 1, 0, 1},
			[]bool{true, true, false, false, false, false}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var cc Cache
			cc.SetMemLimit(row.tables * size)
			var builds atomic.Int64
			cc.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
			sink := telemetry.New()
			for i, k := range row.gets {
				before := builds.Load()
				if _, err := cc.get(context.Background(), compressibleCore(200+int64(k)), opts, sink); err != nil {
					t.Fatal(err)
				}
				if built := builds.Load() > before; built != row.builds[i] {
					t.Errorf("Get %d (core %d): built = %v, want %v", i, k, built, row.builds[i])
				}
			}
			want := int64(0)
			for _, b := range row.builds {
				if b {
					want++
				}
			}
			if n := builds.Load(); n != want {
				t.Errorf("%d builds, want %d", n, want)
			}
			if b := sink.Snapshot().Counters["cache.bytes"]; b > row.tables*size {
				t.Errorf("cache.bytes = %d, over the %d-byte budget", b, row.tables*size)
			}
		})
	}
}

// TestCacheShardedConcurrency hammers many goroutines across many keys
// on one Cache: every key must build exactly once (singleflight), every
// caller of a key must see the identical table pointer, and — under
// -race via `make cachefmt` — the map and LRU list must be
// data-race-free.
func TestCacheShardedConcurrency(t *testing.T) {
	const keys = 8
	const callersPerKey = 8
	opts := TableOptions{MaxWidth: 6, Workers: 1}

	var cc Cache
	buildCounts := make([]atomic.Int64, keys)
	coreSeed := func(i int) int64 { return int64(300 + i) }
	cc.buildHook = func(c *soc.Core, _ TableOptions) {
		for i := 0; i < keys; i++ {
			if c.Seed == coreSeed(i) {
				buildCounts[i].Add(1)
			}
		}
	}

	results := make([][]*Table, keys)
	for i := range results {
		results[i] = make([]*Table, callersPerKey)
	}
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		for j := 0; j < callersPerKey; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				tab, err := cc.Get(compressibleCore(coreSeed(i)), opts)
				if err != nil {
					t.Errorf("key %d caller %d: %v", i, j, err)
					return
				}
				results[i][j] = tab
			}(i, j)
		}
	}
	wg.Wait()

	for i := 0; i < keys; i++ {
		if n := buildCounts[i].Load(); n != 1 {
			t.Errorf("key %d built %d times, want exactly 1", i, n)
		}
		for j := 1; j < callersPerKey; j++ {
			if results[i][j] != results[i][0] {
				t.Errorf("key %d caller %d received a different table instance", i, j)
			}
		}
	}
}

// TestDiskCacheBitFlipNeverPanics complements the fault-injection
// suite: the checksum covers every byte of an entry, so flipping any
// single bit of a valid entry lands in diskcache.corrupt_rebuilds —
// never a panic, never an altered table.
func TestDiskCacheBitFlipNeverPanics(t *testing.T) {
	c := compressibleCore(51)
	opts := TableOptions{MaxWidth: 6}
	dir := t.TempDir()
	var warm Cache
	warm.SetDir(dir)
	good, err := warm.Get(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := contentKey(c, opts.normalized())
	path := diskPath(dir, key)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	stride := len(orig)/64 + 1
	for off := 0; off < len(orig); off += stride {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), orig...)
			mut[off] ^= bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			var cold Cache
			cold.SetDir(dir)
			sink := telemetry.New()
			tab, err := cold.get(context.Background(), c, opts, sink)
			if err != nil {
				t.Fatalf("offset %d bit %#x: %v", off, bit, err)
			}
			if !reflect.DeepEqual(tab, good) {
				t.Fatalf("offset %d bit %#x: table silently changed", off, bit)
			}
			if cn := sink.Snapshot().Counters; cn["diskcache.corrupt_rebuilds"] != 1 {
				t.Fatalf("offset %d bit %#x: probe not a corrupt rebuild: %v", off, bit, cn)
			}
		}
	}
}

// uploadCores returns k never-seen cores shaped like a socserve
// upload's: the cores of a small industrial design, as soc.Synthesize
// draws it at half scale and 24 patterns, each under a cube seed of its
// own, so every core is a new cache key whose build generates a test
// set of a few hundred KB.
func uploadCores(t *testing.T, k int) []*soc.Core {
	t.Helper()
	s, err := soc.Synthesize(context.Background(), soc.SynthSpec{
		Name: "upload", Profile: "industrial", Cores: 3, Seed: 33, Patterns: 24, Scale: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*soc.Core, k)
	for i := range cores {
		cores[i] = freshCore(s.Cores[i%len(s.Cores)])
		cores[i].Seed = int64(1000 + i)
	}
	return cores
}

// TestCacheKeepsNoCore: a resident table holds nothing of the core it
// was built for. A core passed to Get — the one whose build generated
// and cached its test set, and a second parse of it that hits the entry
// — is collected once the caller drops it, while the cache and the
// returned table stay alive.
func TestCacheKeepsNoCore(t *testing.T) {
	var cc Cache
	var collected atomic.Int64
	var tabs []*Table
	func() {
		for _, c := range []*soc.Core{uploadCores(t, 1)[0], uploadCores(t, 1)[0]} {
			runtime.SetFinalizer(c, func(*soc.Core) { collected.Add(1) })
			tab, err := cc.Get(c, TableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tabs = append(tabs, tab)
		}
	}()
	if tabs[0] != tabs[1] {
		t.Fatal("the second parse missed the cache")
	}
	// Finalizers run on their own goroutine after the cycle that found
	// the object unreachable.
	for i := 0; i < 50 && collected.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != 2 {
		t.Errorf("%d of 2 dropped cores collected: the cache or its table keeps a core, and its test set, alive", n)
	}
	runtime.KeepAlive(&cc)
	runtime.KeepAlive(tabs)
}

// TestCacheRetainsOnlyRows: k upload-shaped cores built through one
// cache, then dropped, leave the cache's k resident tables on the heap
// and little else — at most k·tableMemBytes plus a fixed slack for the
// map and the size-class rounding of the rows, where keeping each
// core's test set would leave more than ten times that.
func TestCacheRetainsOnlyRows(t *testing.T) {
	const k = 12
	cores := uploadCores(t, k)
	var cc Cache
	var probe *Table
	grew := retainedBytes(func() any {
		for i := range cores {
			tab, err := cc.Get(cores[i], TableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			probe = tab
			cores[i] = nil
		}
		return nil
	})
	t.Logf("%d cached tables left %d B on the heap (%d charged each)", k, grew, tableMemBytes(probe))
	const slack = 64 << 10
	if limit := k*tableMemBytes(probe) + slack; grew > limit {
		t.Errorf("%d cached tables left %d B on the heap, over %d B (%d charged each, %d slack): the cache keeps more than its tables' rows",
			k, grew, limit, tableMemBytes(probe), slack)
	}
	runtime.KeepAlive(&cc)
}
