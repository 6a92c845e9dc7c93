package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// storeDiskTable writes the entry for key at its sharded path, as the
// disk store's write-back does.
func storeDiskTable(dir, key string, t *Table) error {
	return storeDiskBytes(dir, key, encodeEntry(key, t))
}

// cacheDirEntries lists the table entries currently in dir, all in its
// two-hex-char subdirectories.
func cacheDirEntries(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.table"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDiskCacheRoundTrip: a table that passed through the disk cache is
// field-for-field identical to the freshly built one.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := compressibleCore(11)
	opts := TableOptions{MaxWidth: 12}

	var warm Cache
	warm.SetDir(dir)
	built, err := warm.Get(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheDirEntries(t, dir); len(got) != 1 {
		t.Fatalf("%d cache files after first build, want 1", len(got))
	}

	var cold Cache
	cold.SetDir(dir)
	var builds atomic.Int64
	cold.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
	loaded, err := cold.Get(compressibleCore(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("%d builds on a warm disk cache, want 0", n)
	}
	if !reflect.DeepEqual(built, loaded) {
		t.Error("loaded table differs from built table")
	}
}

// TestDiskCacheCorruption: a truncated, garbage, stale-version or
// bit-flipped entry, and an entry of an earlier revision's format (the
// bitpacked container, a gob stream), each reads as exactly one counted
// corrupt rebuild, and the entry is rewritten in the current format.
func TestDiskCacheCorruption(t *testing.T) {
	c := compressibleCore(12)
	opts := TableOptions{MaxWidth: 10}

	rewrite := func(f func(data []byte) []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", rewrite(func(data []byte) []byte { return data[:len(data)/3] })},
		{"garbage", rewrite(func([]byte) []byte { return []byte("not a table entry") })},
		{"stale-version", rewrite(func(data []byte) []byte {
			// Re-seal the checksum so ONLY the version is wrong: the
			// rejection must come from the version check.
			data[len(entryMagic)] = entryVersion + 1
			body := data[:len(data)-4]
			return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		})},
		{"payload-bit-flip", rewrite(func(data []byte) []byte { data[len(data)-6] ^= 0x10; return data })},
		{"v2-container", rewrite(func([]byte) []byte { return []byte(v2Entry) })},
		{"gob", rewrite(func([]byte) []byte { return []byte(gobEntry) })},
	}

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var warm Cache
			warm.SetDir(dir)
			built, err := warm.Get(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			files := cacheDirEntries(t, dir)
			if len(files) != 1 {
				t.Fatalf("%d cache files, want 1", len(files))
			}
			tc.corrupt(t, files[0])

			// The corrupted entry must be one counted rebuild...
			var again Cache
			again.SetDir(dir)
			var builds atomic.Int64
			again.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
			sink := telemetry.New()
			rebuilt, err := again.get(context.Background(), c, opts, sink)
			if err != nil {
				t.Fatal(err)
			}
			if n := builds.Load(); n != 1 {
				t.Errorf("%d builds after corruption, want 1", n)
			}
			if cn := sink.Snapshot().Counters; cn["diskcache.corrupt_rebuilds"] != 1 || cn["diskcache.hits"]+cn["diskcache.misses"] != 0 {
				t.Errorf("counters %v, want exactly one corrupt rebuild", cn)
			}
			if !reflect.DeepEqual(built, rebuilt) {
				t.Error("rebuilt table differs from original")
			}

			// ...and the rewritten entry must be good: it decodes, and a
			// third cache loads it without building.
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeEntry(data, contentKey(c, opts.normalized()), opts.normalized()); err != nil {
				t.Errorf("rewritten entry does not decode: %v", err)
			}
			var third Cache
			third.SetDir(dir)
			var builds3 atomic.Int64
			third.buildHook = func(*soc.Core, TableOptions) { builds3.Add(1) }
			if _, err := third.Get(c, opts); err != nil {
				t.Fatal(err)
			}
			if n := builds3.Load(); n != 0 {
				t.Errorf("%d builds from the rewritten entry, want 0", n)
			}
		})
	}
}

// TestDiskCacheBytesNetOfOverwrites: diskcache.bytes counts the net
// bytes a process added to the store, so rewriting an entry over a
// larger corrupt one counts the replaced bytes as removed, with and
// without a disk budget.
func TestDiskCacheBytesNetOfOverwrites(t *testing.T) {
	c := compressibleCore(15)
	opts := TableOptions{MaxWidth: 10}
	const corruptSize = 5000
	for _, budget := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			path := diskPath(dir, contentKey(c, opts.normalized()))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, make([]byte, corruptSize), 0o644); err != nil {
				t.Fatal(err)
			}
			cc, err := NewCache(dir, 0, budget)
			if err != nil {
				t.Fatal(err)
			}
			sink := telemetry.New()
			if _, err := cc.get(context.Background(), c, opts, sink); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			cn := sink.Snapshot().Counters
			if cn["diskcache.corrupt_rebuilds"] != 1 {
				t.Fatalf("counters %v, want one corrupt rebuild", cn)
			}
			if want := info.Size() - corruptSize; cn["diskcache.bytes"] != want {
				t.Errorf("diskcache.bytes = %d, want %d: a %d-byte entry replaced %d bytes", cn["diskcache.bytes"], want, info.Size(), corruptSize)
			}
		})
	}
}

// TestDiskCacheCorruptionTelemetry: a corrupted entry is no longer an
// invisible rebuild — it increments diskcache.corrupt_rebuilds exactly
// once and fires the warning callback, while a plain absent entry
// counts as a miss, and a valid one as a hit.
func TestDiskCacheCorruptionTelemetry(t *testing.T) {
	c := compressibleCore(14)
	opts := TableOptions{MaxWidth: 10}
	dir := t.TempDir()

	// Cold run: entry absent → one disk miss, no corruption.
	cold := telemetry.New()
	var warm Cache
	warm.SetDir(dir)
	if _, err := warm.get(context.Background(), c, opts, cold); err != nil {
		t.Fatal(err)
	}
	cn := cold.Snapshot().Counters
	if cn["diskcache.misses"] != 1 || cn["diskcache.corrupt_rebuilds"] != 0 {
		t.Fatalf("cold counters: %v", cn)
	}

	// Warm run: valid entry → one hit.
	hit := telemetry.New()
	var second Cache
	second.SetDir(dir)
	if _, err := second.get(context.Background(), compressibleCore(14), opts, hit); err != nil {
		t.Fatal(err)
	}
	hn := hit.Snapshot().Counters
	if hn["diskcache.hits"] != 1 || hn["diskcache.corrupt_rebuilds"] != 0 {
		t.Fatalf("warm counters: %v", hn)
	}

	// Corrupt the entry: the rebuild must be counted exactly once and
	// the callback must name the file.
	files := cacheDirEntries(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d cache files, want 1", len(files))
	}
	if err := os.WriteFile(files[0], []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := telemetry.New()
	var warnings []string
	var third Cache
	third.SetDir(dir)
	third.SetWarn(func(msg string) { warnings = append(warnings, msg) })
	if _, err := third.get(context.Background(), compressibleCore(14), opts, corrupt); err != nil {
		t.Fatal(err)
	}
	kn := corrupt.Snapshot().Counters
	if kn["diskcache.corrupt_rebuilds"] != 1 {
		t.Fatalf("diskcache.corrupt_rebuilds = %d, want exactly 1 (counters: %v)",
			kn["diskcache.corrupt_rebuilds"], kn)
	}
	if kn["diskcache.misses"] != 0 || kn["diskcache.hits"] != 0 {
		t.Fatalf("corruption misclassified as hit/miss: %v", kn)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], files[0]) {
		t.Fatalf("warning callback: %v, want one message naming %s", warnings, files[0])
	}

	// The rewritten entry is good again: a fourth cache hits cleanly.
	again := telemetry.New()
	var fourth Cache
	fourth.SetDir(dir)
	if _, err := fourth.get(context.Background(), compressibleCore(14), opts, again); err != nil {
		t.Fatal(err)
	}
	if an := again.Snapshot().Counters; an["diskcache.hits"] != 1 {
		t.Fatalf("rewritten entry not hit: %v", an)
	}
}

// TestOptimizeTableCacheDir: end-to-end through a Cache from NewCache
// — the second run, on a fresh Cache over the same directory, reloads
// every table from disk (≈0 table time) and reproduces the first run's
// result exactly.
func TestOptimizeTableCacheDir(t *testing.T) {
	dir := t.TempDir()
	s := testSOC()
	first, err := NewCache(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Style:  StyleTDCPerCore,
		Tables: TableOptions{MaxWidth: 16},
		Cache:  first,
	}
	cold, err := Optimize(s, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cacheDirEntries(t, dir)) != len(s.Cores) {
		t.Fatalf("%d cache files, want %d", len(cacheDirEntries(t, dir)), len(s.Cores))
	}

	// Second run with a fresh in-memory cache: every table must come
	// from disk, with zero rebuilds.
	fresh, err := NewCache(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	fresh.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
	opts.Cache = fresh
	warm, err := Optimize(testSOC(), 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("%d table builds on a warm disk cache, want 0", n)
	}
	if warm.TestTime != cold.TestTime || warm.Volume != cold.Volume {
		t.Errorf("warm run differs: time %d vs %d, volume %d vs %d",
			warm.TestTime, cold.TestTime, warm.Volume, cold.Volume)
	}
	if !reflect.DeepEqual(warm.Partition, cold.Partition) {
		t.Errorf("warm partition %v differs from cold %v", warm.Partition, cold.Partition)
	}

	// A disk budget with no directory has no store to bound.
	if _, err := NewCache("", 0, 1<<20); err == nil {
		t.Error("NewCache accepted a disk budget without a directory")
	}
}

// TestDiskStoreTouchErrorCounted: when the mtime-as-atime stamp fails
// (read-only or remounted cache dir, a concurrently removed entry), the
// failure is counted as diskcache.touch_errors instead of swallowed,
// and the in-memory index atime stays authoritative — a touched entry
// keeps its LRU recency even though the disk stamp never landed.
func TestDiskStoreTouchErrorCounted(t *testing.T) {
	dir := t.TempDir()
	opts := TableOptions{MaxWidth: 8}
	sink := telemetry.New()

	build := func(seed int64) (string, *Table) {
		c := compressibleCore(seed)
		tab, err := BuildTable(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		return contentKey(c, opts.normalized()), tab
	}
	keyA, tabA := build(61)
	keyB, tabB := build(62)
	keyC, tabC := build(63)
	entrySize := int64(len(encodeEntry(keyA, tabA)))

	// Cap sized for two entries, so storing a third evicts the
	// oldest-access one.
	ds := newDiskStore(dir, 2*entrySize+entrySize/2)
	for _, e := range []struct {
		key string
		tab *Table
	}{{keyA, tabA}, {keyB, tabB}} {
		if err := ds.store(e.key, e.tab, sink); err != nil {
			t.Fatal(err)
		}
	}

	// A healthy touch counts nothing.
	ds.touch(keyA, sink)
	if n := sink.Snapshot().Counters["diskcache.touch_errors"]; n != 0 {
		t.Fatalf("healthy touch counted %d errors", n)
	}

	// Remove A's file out from under the store: the next Chtimes stamp
	// fails exactly the way a read-only remount makes every stamp fail.
	if err := os.Remove(diskPath(dir, keyA)); err != nil {
		t.Fatal(err)
	}
	ds.mu.Lock()
	before := ds.entries[keyA].atime
	ds.mu.Unlock()
	ds.touch(keyA, sink)
	if n := sink.Snapshot().Counters["diskcache.touch_errors"]; n != 1 {
		t.Fatalf("diskcache.touch_errors = %d after a failed stamp, want 1", n)
	}
	ds.mu.Lock()
	after := ds.entries[keyA].atime
	ds.mu.Unlock()
	if !after.After(before) {
		t.Fatal("index atime not advanced when the disk stamp failed")
	}

	// The failed stamp must not demote A: storing C past the budget
	// evicts B (the genuinely least recently used entry), not A.
	if err := ds.store(keyC, tabC, sink); err != nil {
		t.Fatal(err)
	}
	ds.mu.Lock()
	_, hasA := ds.entries[keyA]
	_, hasB := ds.entries[keyB]
	ds.mu.Unlock()
	if !hasA || hasB {
		t.Fatalf("eviction ignored the in-memory atime: A present=%v B present=%v, want A kept, B evicted", hasA, hasB)
	}
}
