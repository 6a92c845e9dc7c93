package core

// This file implements the persistent on-disk lookup-table cache. Table
// builds dominate every cold run (the "TDC time" of the paper's CPU
// accounting), and they are pure functions of the core's structural
// content and the normalized TableOptions — so entries are
// content-addressed by the same contentKey the in-memory Cache uses,
// and survive process restarts.
//
// Layout: entries live at <dir>/<hh>/<key>.table, fanned out into 256
// two-hex-char subdirectories (hh = the key's first two characters) so
// multi-thousand-entry caches never degrade into one giant directory
// scan.
//
// Format: one checksummed entry per table (tableentry.go): the content
// key and the two stored rows, guarded by a CRC-32. A file at an
// entry's path in any other form — a gob stream of the first revision,
// a bitpacked container of the second — is corrupt like any other;
// files at other paths, such as the first revision's flat
// <dir>/<key>.table entries, are never read.
//
// Writes go through a temp file in the same directory — synced before an
// atomic rename, with the directory synced after — so neither a
// concurrent reader nor a crash mid-write can observe a half-written
// entry. Readers treat every failure — missing file, truncation,
// garbage, version or key mismatch, shape mismatch — as a cache miss:
// the table is rebuilt and the entry rewritten, never trusted, and
// corruption never surfaces as an error. Failures are not invisible,
// though: loads distinguish an absent entry (diskMiss) from a
// present-but-bad one (diskCorrupt), and Cache routes the distinction
// into the diskcache.* telemetry counters and the optional SetWarn
// callback.
//
// The diskStore type layers a total-size budget on top: an
// atime-tracked index (modification time doubles as access time — reads
// re-stamp it with Chtimes) with oldest-first eviction, so `-table-cache-size`
// bounds the directory while keeping the most recently useful entries.

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"soctap/internal/telemetry"
)

// diskStatus classifies one disk-store probe.
type diskStatus int

const (
	diskHit     diskStatus = iota // entry present and valid
	diskMiss                      // entry absent
	diskCorrupt                   // entry present but unreadable, stale or mismatched
)

// diskPath is the sharded location of an entry: a two-hex-char
// subdirectory keyed by the first byte of the (hex) content key. Keys
// too short to shard — only synthetic test keys; real keys are 64-char
// sha256 hex — stay flat.
func diskPath(dir, key string) string {
	if len(key) < 2 {
		return filepath.Join(dir, key+".table")
	}
	return filepath.Join(dir, key[:2], key+".table")
}

// loadDiskTable reads and decodes the entry for key. On anything but a
// hit the caller rebuilds; the status says whether the entry was absent
// (diskMiss) or present but bad (diskCorrupt), and reason carries the
// corruption detail for the warning callback.
func loadDiskTable(dir, key string, opts TableOptions) (t *Table, status diskStatus, reason error) {
	data, err := os.ReadFile(diskPath(dir, key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, diskMiss, nil
	}
	if err != nil {
		// Present but unreadable (permissions, I/O): a trace-worthy
		// failure, not a plain miss.
		return nil, diskCorrupt, err
	}
	t, err = decodeEntry(data, key, opts)
	if err != nil {
		return nil, diskCorrupt, err
	}
	return t, diskHit, nil
}

// diskFault, when non-nil, injects a failure before the named stage of
// storeDiskBytes ("create", "write", "sync", "close", "rename",
// "dirsync") — the fault-injection seam of the crash-safety tests. Set
// it only from tests, before concurrent use, and restore it to nil.
var diskFault func(stage string) error

// faultAt consults the fault-injection seam; the nil default is free.
func faultAt(stage string) error {
	if diskFault == nil {
		return nil
	}
	return diskFault(stage)
}

// storeDiskBytes publishes data under key crash-safely: temp file in
// the entry's directory, fsync of the file data, atomic rename, then
// fsync of the directory. The file sync before the rename is what
// keeps a power cut from publishing a truncated entry under the final
// name — without it the rename can be durable while the data is not —
// and the directory sync makes the publication itself durable.
func storeDiskBytes(dir, key string, data []byte) error {
	path := diskPath(dir, key)
	entryDir := filepath.Dir(path)
	if err := os.MkdirAll(entryDir, 0o755); err != nil {
		return err
	}
	if err := faultAt("create"); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(entryDir, ".tmp-"+key+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := faultAt("write"); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := faultAt("sync"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := faultAt("close"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := faultAt("rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(entryDir)
}

// syncDir fsyncs the entry's directory so a just-renamed entry's
// directory record is durable.
func syncDir(dir string) error {
	if err := faultAt("dirsync"); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// diskStore is the bounded persistent tier: loadDiskTable/storeDiskBytes
// plus a total-size budget enforced by atime-ordered eviction. With no
// budget (capBytes == 0) it adds nothing — no index, no stat traffic —
// and behaves exactly like the unbounded store of earlier revisions.
//
// Access times: every hit re-stamps the entry file's mtime with
// Chtimes, so modification time is a persistent access-time proxy that
// survives restarts and noatime mounts. The index is built lazily (one
// WalkDir on the first operation that needs it) and kept incrementally
// current afterwards.
type diskStore struct {
	dir string

	mu       sync.Mutex
	capBytes int64
	scanned  bool
	entries  map[string]diskIdxEnt // key → current size/atime
	total    int64
}

// diskIdxEnt is one row of the eviction index.
type diskIdxEnt struct {
	path  string
	size  int64
	atime time.Time
}

func newDiskStore(dir string, capBytes int64) *diskStore {
	return &diskStore{dir: dir, capBytes: capBytes}
}

// setCap installs (or clears) the total-size budget. Takes effect on
// the next store.
func (ds *diskStore) setCap(capBytes int64) {
	ds.mu.Lock()
	ds.capBytes = capBytes
	ds.mu.Unlock()
}

// load probes the store for key, counting the outcome into tel. On a
// hit the entry's access time is re-stamped.
func (ds *diskStore) load(key string, opts TableOptions, tel *telemetry.Sink, warnf func(string, ...any)) (*Table, diskStatus) {
	t0 := time.Now()
	t, status, reason := loadDiskTable(ds.dir, key, opts)
	tel.Histogram("diskcache.load_seconds").Observe(time.Since(t0))
	switch status {
	case diskHit:
		tel.Counter("diskcache.hits").Inc()
		ds.touch(key, tel)
	case diskMiss:
		tel.Counter("diskcache.misses").Inc()
	case diskCorrupt:
		tel.Counter("diskcache.corrupt_rebuilds").Inc()
		warnf("table cache: corrupt entry %s rebuilt: %v", diskPath(ds.dir, key), reason)
	}
	return t, status
}

// store writes the entry for key, accounts it in the index, and
// evicts oldest-first down to the budget. diskcache.bytes tracks the
// net bytes this process added to the store: entries written, less the
// entries they replaced and the evictions.
func (ds *diskStore) store(key string, t *Table, tel *telemetry.Sink) error {
	data := encodeEntry(key, t)
	var replaced int64
	if info, err := os.Stat(diskPath(ds.dir, key)); err == nil {
		replaced = info.Size()
	}
	if err := storeDiskBytes(ds.dir, key, data); err != nil {
		return err
	}
	tel.Counter("diskcache.bytes").Add(int64(len(data)) - replaced)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.capBytes <= 0 {
		return nil
	}
	ds.scanLocked()
	now := time.Now()
	if old, ok := ds.entries[key]; ok {
		ds.total -= old.size
	}
	ds.entries[key] = diskIdxEnt{path: diskPath(ds.dir, key), size: int64(len(data)), atime: now}
	ds.total += int64(len(data))
	ds.evictLocked(tel)
	return nil
}

// touch re-stamps the entry's access time. The on-disk stamp (file
// mtime, the atime proxy that survives restarts) can fail — read-only
// remount, permissions, a concurrently evicted file — and on a cache
// dir where it always fails the persistent LRU would silently decay
// toward FIFO. The failure is therefore counted (diskcache.touch_errors)
// rather than swallowed, and the in-memory index stays authoritative
// for this process either way: eviction ordering reads index atimes,
// which are updated regardless of whether the disk stamp landed.
func (ds *diskStore) touch(key string, tel *telemetry.Sink) {
	now := time.Now()
	path := diskPath(ds.dir, key)
	if err := os.Chtimes(path, now, now); err != nil {
		tel.Counter("diskcache.touch_errors").Inc()
	}
	ds.mu.Lock()
	if ds.scanned {
		if e, ok := ds.entries[key]; ok {
			e.atime = now
			ds.entries[key] = e
		}
	}
	ds.mu.Unlock()
}

// scanLocked builds the index on first use: one walk over the cache
// directory, recording the size and mtime-as-atime of each file at an
// entry's own path. Files anywhere else — temp files, flat leftovers of
// the first revision's layout — are not entries and stay unaccounted.
func (ds *diskStore) scanLocked() {
	if ds.scanned {
		return
	}
	ds.scanned = true
	ds.entries = make(map[string]diskIdxEnt)
	ds.total = 0
	filepath.WalkDir(ds.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // unreadable pieces just stay unaccounted
		}
		key, ok := strings.CutSuffix(d.Name(), ".table")
		if !ok || path != diskPath(ds.dir, key) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		ds.entries[key] = diskIdxEnt{path: path, size: info.Size(), atime: info.ModTime()}
		ds.total += info.Size()
		return nil
	})
}

// evictLocked removes oldest-atime entries (ties broken by key, so the
// order is deterministic at equal timestamps) until the store fits the
// budget.
func (ds *diskStore) evictLocked(tel *telemetry.Sink) {
	if ds.capBytes <= 0 || ds.total <= ds.capBytes {
		return
	}
	keys := make([]string, 0, len(ds.entries))
	for k := range ds.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := ds.entries[keys[i]], ds.entries[keys[j]]
		if !a.atime.Equal(b.atime) {
			return a.atime.Before(b.atime)
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		if ds.total <= ds.capBytes {
			return
		}
		e := ds.entries[k]
		os.Remove(e.path) // best-effort; the accounting drops it either way
		ds.total -= e.size
		delete(ds.entries, k)
		tel.Counter("diskcache.evictions").Inc()
		tel.Counter("diskcache.bytes").Add(-e.size)
	}
}
