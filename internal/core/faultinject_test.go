package core

// Fault-injection tests for the crash-safe disk store: a failure at any
// stage of storeDiskTable must never publish a partial entry under the
// final name, must be counted in diskcache.write_errors, and must never
// affect the table the caller receives.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"soctap/internal/telemetry"
)

// stageFault arms diskFault for one named stage and returns a cleanup
// that disarms it. Fault state is package-global, so these tests must
// not run in parallel.
func stageFault(t *testing.T, stage string) {
	t.Helper()
	diskFault = func(s string) error {
		if s == stage {
			return fmt.Errorf("injected %s fault", s)
		}
		return nil
	}
	t.Cleanup(func() { diskFault = nil })
}

// tmpFiles lists leftover temp files anywhere under the cache dir
// (entries write their temp files inside the shard subdirectory).
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	var tmps []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			tmps = append(tmps, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

func TestStoreDiskTableFaultInjection(t *testing.T) {
	c := compressibleCore(31)
	opts := TableOptions{MaxWidth: 8}
	want, err := BuildTable(c, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Stages strictly before the rename: the entry must not appear under
	// the final name at all.
	for _, stage := range []string{"create", "write", "sync", "close", "rename"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			stageFault(t, stage)
			var cache Cache
			cache.SetDir(dir)
			var warned bool
			cache.SetWarn(func(string) { warned = true })
			sink := telemetry.New()

			tab, err := cache.get(context.Background(), c, opts, sink)
			if err != nil {
				t.Fatalf("Get failed on a best-effort store fault: %v", err)
			}
			if !reflect.DeepEqual(tab, want) {
				t.Fatal("store fault corrupted the returned table")
			}
			cn := sink.Snapshot().Counters
			if cn["diskcache.write_errors"] != 1 {
				t.Errorf("diskcache.write_errors = %d, want 1 (counters: %v)",
					cn["diskcache.write_errors"], cn)
			}
			if !warned {
				t.Error("failed write-back did not reach the warn callback")
			}
			if files := cacheDirEntries(t, dir); len(files) != 0 {
				t.Errorf("fault at %s still published entry %v", stage, files)
			}
			if tmps := tmpFiles(t, dir); len(tmps) != 0 {
				t.Errorf("fault at %s left temp files behind: %v", stage, tmps)
			}

			// With the fault cleared, a fresh cache rebuilds and the
			// write-back now lands.
			diskFault = nil
			var retry Cache
			retry.SetDir(dir)
			again := telemetry.New()
			if _, err := retry.get(context.Background(), c, opts, again); err != nil {
				t.Fatal(err)
			}
			rn := again.Snapshot().Counters
			if rn["diskcache.misses"] != 1 || rn["diskcache.write_errors"] != 0 {
				t.Errorf("retry counters after cleared fault: %v", rn)
			}
			if files := cacheDirEntries(t, dir); len(files) != 1 {
				t.Errorf("retry did not publish the entry: %v", files)
			}
		})
	}

	// A dirsync failure happens after the rename: the entry is already
	// published and valid — the write is still reported as failed (its
	// durability is not guaranteed), but a reader must load it.
	t.Run("dirsync", func(t *testing.T) {
		dir := t.TempDir()
		stageFault(t, "dirsync")
		var cache Cache
		cache.SetDir(dir)
		sink := telemetry.New()
		if _, err := cache.get(context.Background(), c, opts, sink); err != nil {
			t.Fatal(err)
		}
		if cn := sink.Snapshot().Counters; cn["diskcache.write_errors"] != 1 {
			t.Errorf("diskcache.write_errors = %d, want 1", cn["diskcache.write_errors"])
		}
		diskFault = nil
		var reader Cache
		reader.SetDir(dir)
		hit := telemetry.New()
		if _, err := reader.get(context.Background(), c, opts, hit); err != nil {
			t.Fatal(err)
		}
		if hn := hit.Snapshot().Counters; hn["diskcache.hits"] != 1 {
			t.Errorf("published-then-dirsync-failed entry did not read back as a hit: %v", hn)
		}
	})
}

// TestDiskCacheShortEntryIsCorrupt: an entry truncated to a prefix —
// what a crash between write and sync could leave without the fsync
// ordering — must land in diskcache.corrupt_rebuilds and never in the
// returned table.
func TestDiskCacheShortEntryIsCorrupt(t *testing.T) {
	c := compressibleCore(32)
	opts := TableOptions{MaxWidth: 8}
	dir := t.TempDir()

	var warm Cache
	warm.SetDir(dir)
	good, err := warm.Get(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	files := cacheDirEntries(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d cache files, want 1", len(files))
	}
	for _, keep := range []int{0, 1, 16} {
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if keep > len(data) {
			t.Fatalf("entry only %d bytes", len(data))
		}
		if err := os.WriteFile(files[0], data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}

		var cold Cache
		cold.SetDir(dir)
		sink := telemetry.New()
		tab, err := cold.get(context.Background(), c, opts, sink)
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		cn := sink.Snapshot().Counters
		if cn["diskcache.corrupt_rebuilds"] != 1 {
			t.Errorf("keep=%d: corrupt_rebuilds = %d, want 1 (counters: %v)",
				keep, cn["diskcache.corrupt_rebuilds"], cn)
		}
		if !reflect.DeepEqual(tab, good) {
			t.Errorf("keep=%d: rebuilt table differs from original", keep)
		}
	}
}

// TestStoreDiskTablePermissionError: a real (non-injected) filesystem
// failure takes the same best-effort path as an injected one.
func TestStoreDiskTablePermissionError(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	err := storeDiskTable(filepath.Join(dir, "sub"), "k", &Table{Opts: TableOptions{}})
	if err == nil {
		t.Fatal("store into an unwritable directory succeeded")
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unexpected error class: %v", err)
	}
}
