package core

// Tests for the cache tiers: the one disk format and layout, the
// bounded disk store, the exact LRU memory budget, and the format on
// the paper's benchmark cores.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"soctap/internal/soc"
	"soctap/internal/tablecodec"
	"soctap/internal/telemetry"
)

// gobEntry is a gob stream in the shape of the first revision's cache
// entries (a struct with Version and Key fields), whose reader is gone.
const gobEntry = "*\x7f\x03\x01\x01\tdiskEntry\x01\xff\x80\x00\x01\x02\x01\aVersion\x01\f\x00\x01\x03Key\x01\f\x00\x00\x00\x1b\xff\x80\x01\x13soctap-diskcache-v1\x01\x01k\x00"

// TestDiskCacheV1Migration: the first revision's entries are not
// migrated but rebuilt. A file at the flat <dir>/<key>.table path is
// never read or indexed — the Get is a plain disk miss and one build,
// the v2 entry lands at the sharded path, and the flat file is left
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
	if _, err := tablecodec.Verify(data); err != nil {
		t.Errorf("written entry fails verification: %v", err)
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
	a, b := *built, *loaded
	a.Core, b.Core = nil, nil
	if !reflect.DeepEqual(a, b) {
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

// TestFormatV2MatchesV1OnBenchmarks is the decode check on real cores:
// on every d695 core and a synthetic industrial core, the table decoded
// from its v2 container, in memory and through the disk store, is
// DeepEqual to the freshly built one.
func TestFormatV2MatchesV1OnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full-benchmark format sweep")
	}
	cores := append([]*soc.Core{}, soc.D695().Cores...)
	cores = append(cores, soc.MustIndustrialCore("ckt-2"))
	opts := TableOptions{MaxWidth: 12, BandSamples: 8}
	for _, c := range cores {
		t.Run(c.Name, func(t *testing.T) {
			built, err := BuildTable(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := contentKey(c, opts.normalized())

			mem, err := decodeTableV2(encodeTableV2(key, built), key, c, opts.normalized())
			if err != nil {
				t.Fatalf("v2 round trip: %v", err)
			}
			dir := t.TempDir()
			if err := storeDiskTable(dir, key, built); err != nil {
				t.Fatal(err)
			}
			disk, status, reason := loadDiskTable(dir, key, c, opts.normalized())
			if status != diskHit {
				t.Fatalf("disk load: status %v (%v)", status, reason)
			}

			want := *built
			want.Core = nil
			for name, got := range map[string]*Table{"memory": mem, "disk": disk} {
				g := *got
				g.Core = nil
				if !reflect.DeepEqual(want, g) {
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
	entrySize := int64(len(encodeTableV2(contentKey(probe, opts.normalized()), built)))

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
// suite: flipping any single byte of a valid v2 entry must either still
// load the identical table (flips in slack bits) or land in
// diskcache.corrupt_rebuilds — never panic, never alter the result.
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
			if tab.Best[6] != good.Best[6] {
				t.Fatalf("offset %d bit %#x: table silently changed", off, bit)
			}
			cn := sink.Snapshot().Counters
			if cn["diskcache.corrupt_rebuilds"]+cn["diskcache.hits"] != 1 {
				t.Fatalf("offset %d bit %#x: probe neither hit nor corrupt: %v", off, bit, cn)
			}
		}
	}
	// Restore a clean entry for no other reason than leaving the tempdir
	// consistent if later asserts are added.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}
