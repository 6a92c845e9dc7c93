package core

// The in-memory table cache tier. Tables are keyed by a hash of the
// core's structural content plus the normalized option set, so
// structurally identical cores — e.g. the same design file parsed twice
// — share one entry.
//
// Concurrency: one mutex guards the map, the LRU list and the
// configuration. The content key (a sha256 over the core) is computed
// before the lock is taken, so the critical section is a map probe and
// a list splice; a warm Get spends its time hashing, not waiting, and
// hash-sharding the map measured no faster at 1, 2 or 8 CPUs.
// Concurrent callers of one key coalesce onto one build, the entry's
// done channel is always closed (even on panic), contained panics
// surface as *PanicError, and uncacheable outcomes (panic,
// cancellation) evict the entry so a later Get starts fresh — while a
// deterministic build error stays cached, because retrying a pure
// function cannot help.
//
// Bounding: resident (completed) entries sit on one intrusive LRU
// list. With a budget installed (SetMemLimit / NewCache /
// -table-cache-mem) the least-recently-used entries are evicted as soon
// as the resident total exceeds it — an eviction only costs a rebuild
// (or a disk reload) on the next Get. The zero budget is unbounded.
// cache.bytes / cache.evictions count the accounting; sizes are the
// tableMemBytes estimate, not exact heap bytes. A resident entry keeps
// its key and its table, and a table keeps only its options and rows —
// nothing of the core a caller passed to Get — so the budget bounds
// what the cache holds on the heap: the cores, and the test sets their
// builds generated, die with their callers.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// Cache memoizes lookup tables across optimizer runs. The zero value is
// ready to use; NewCache builds one with its tiers configured. Get is
// singleflight per key; SetDir layers the persistent disk tier
// (diskcache.go) under the memory tier; SetMemLimit and SetDiskLimit
// bound the two tiers.
type Cache struct {
	// mu guards every field below.
	mu         sync.Mutex
	tables     map[string]*cacheEntry
	head, tail *cacheEntry // resident entries, head = most recently used
	bytes      int64       // resident bytes on the list
	memCap     int64       // in-memory budget in bytes; 0 = unbounded
	diskCap    int64       // disk-tier budget, held here until SetDir runs
	disk       *diskStore
	warn       func(msg string)

	// buildHook, when non-nil, observes every table build the cache
	// actually starts (test instrumentation; disk-cache hits do not
	// count as builds). Set it before any Get.
	buildHook func(*soc.Core, TableOptions)
}

type cacheEntry struct {
	key  string
	done chan struct{} // closed when t/err are valid
	t    *Table
	err  error

	// LRU state, guarded by Cache.mu. resident means the entry
	// completed cacheably and is linked into the list.
	prev, next *cacheEntry
	size       int64
	resident   bool
}

// NewCache returns a Cache with a disk store at dir (none when dir is
// empty) and the given memory and disk budgets in bytes (0 =
// unbounded). A disk budget without a directory is an error: there is
// no store for it to bound.
func NewCache(dir string, memBytes, diskBytes int64) (*Cache, error) {
	if diskBytes > 0 && dir == "" {
		return nil, errors.New("a disk budget needs a cache directory")
	}
	cc := &Cache{memCap: memBytes, diskCap: diskBytes}
	if dir != "" {
		cc.disk = newDiskStore(dir, diskBytes)
	}
	return cc, nil
}

// SetDir attaches a persistent on-disk table store at dir (created on
// first write). Entries found there satisfy Get without a rebuild;
// tables built after this call are written back, best-effort. Call it
// before concurrent use.
func (cc *Cache) SetDir(dir string) {
	cc.mu.Lock()
	cc.disk = newDiskStore(dir, cc.diskCap)
	cc.mu.Unlock()
}

// SetMemLimit bounds the in-memory tier to n bytes of resident tables
// (0 = unbounded). Call it before concurrent use; entries past the
// budget are evicted least-recently-used as builds complete.
func (cc *Cache) SetMemLimit(n int64) {
	cc.mu.Lock()
	cc.memCap = n
	cc.mu.Unlock()
}

// SetDiskLimit bounds the disk tier to n bytes (0 = unbounded),
// enforced by atime-ordered eviction on write-back. Order-independent
// with SetDir.
func (cc *Cache) SetDiskLimit(n int64) {
	cc.mu.Lock()
	cc.diskCap = n
	if cc.disk != nil {
		cc.disk.setCap(n)
	}
	cc.mu.Unlock()
}

// SetWarn installs a callback for the disk store's otherwise-silent
// failure modes: corrupt, stale or mismatched entries (rebuilt in
// place) and failed write-backs. fn may be called from any goroutine
// the cache is used on; nil disables warnings. Call it before
// concurrent use.
func (cc *Cache) SetWarn(fn func(msg string)) {
	cc.mu.Lock()
	cc.warn = fn
	cc.mu.Unlock()
}

// warnf formats a warning through the SetWarn callback, if any. The
// callback is read under the lock and called outside it.
func (cc *Cache) warnf(format string, args ...any) {
	cc.mu.Lock()
	fn := cc.warn
	cc.mu.Unlock()
	if fn != nil {
		fn(fmt.Sprintf(format, args...))
	}
}

// Get returns the memoized table for (c, opts), building it on first
// use. Concurrent calls with the same key wait for the single build in
// flight; a deterministic build error is cached (BuildTable is
// deterministic, so retrying cannot succeed), while cancellations and
// contained panics evict the entry so a later Get rebuilds.
func (cc *Cache) Get(c *soc.Core, opts TableOptions) (*Table, error) {
	return cc.get(context.Background(), c, opts, nil)
}

// GetContext is Get governed by ctx: both the build itself and the wait
// of callers coalesced onto someone else's in-flight build observe
// cancellation. A waiter whose ctx ends returns ctx.Err() immediately;
// the build it was waiting on is unaffected. A nil ctx behaves like
// context.Background().
func (cc *Cache) GetContext(ctx context.Context, c *soc.Core, opts TableOptions) (*Table, error) {
	return cc.get(ctx, c, opts, nil)
}

// GetInstrumentedContext is GetContext with telemetry: cache probes and
// any resulting build are counted into tel's cache.*/diskcache.*/eval.*
// registries. A nil tel makes it identical to GetContext.
func (cc *Cache) GetInstrumentedContext(ctx context.Context, c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	return cc.get(ctx, c, opts, tel)
}

// get is Get with an optional telemetry sink: memory- and disk-layer
// probes are counted (hits, misses, corrupt rebuilds, write errors) —
// exactly once per event, deterministically for any worker count,
// because the singleflight entry install serializes who counts the
// miss.
func (cc *Cache) get(ctx context.Context, c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	key := contentKey(c, opts.normalized())
	cc.mu.Lock()
	if cc.tables == nil {
		cc.tables = make(map[string]*cacheEntry)
	}
	if e, ok := cc.tables[key]; ok {
		if e.resident {
			cc.unlink(e)
			cc.pushFront(e)
		}
		cc.mu.Unlock()
		tel.Counter("cache.mem_hits").Inc()
		return e.wait(ctx)
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	cc.tables[key] = e
	ds := cc.disk
	cc.mu.Unlock()
	tel.Counter("cache.mem_misses").Inc()

	cc.build(ctx, ds, e, c, opts, tel)
	return e.t, e.err
}

// wait blocks until the entry's build completes or ctx ends. Bailing
// out early leaves the build (owned by another caller) running; this
// waiter just stops waiting for it.
func (e *cacheEntry) wait(ctx context.Context) (*Table, error) {
	if ctx.Done() == nil {
		<-e.done
		return e.t, e.err
	}
	select {
	case <-e.done:
		return e.t, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// build populates a freshly installed singleflight entry: disk-layer
// probe (ds, when non-nil), then the in-memory build, then the
// best-effort write-back.
//
// The deferred epilogue is the fix for the cache-poisoning deadlock:
// e.done is ALWAYS closed — even when the build panics — so waiters can
// never block forever on a dead build. A panic is converted to a
// *PanicError (with the core attached) instead of unwinding into the
// caller, and any uncacheable outcome (panic or cancellation) evicts
// the entry from the map so future Gets start a fresh build rather than
// inheriting a failure that says nothing about the table itself. A
// cacheable outcome makes the entry resident on the LRU list, which may
// evict older entries past the memory budget.
func (cc *Cache) build(ctx context.Context, ds *diskStore, e *cacheEntry, c *soc.Core, opts TableOptions, tel *telemetry.Sink) {
	defer func() {
		if r := recover(); r != nil {
			tel.Counter("panic.recovered").Inc()
			e.t, e.err = nil, newPanicError(c.Name, "table build", r)
		}
		cc.mu.Lock()
		if cc.tables[e.key] == e {
			if uncacheable(e.err) {
				delete(cc.tables, e.key)
			} else {
				cc.makeResident(e, tel)
			}
		}
		cc.mu.Unlock()
		close(e.done)
	}()

	if ds != nil {
		t, status := ds.load(e.key, opts.normalized(), tel, cc.warnf)
		if status == diskHit {
			e.t = t
			return
		}
	}
	if cc.buildHook != nil {
		cc.buildHook(c, opts)
	}
	e.t, e.err = buildTable(ctx, c, opts, tel)
	if e.err == nil && ds != nil {
		// Best-effort: a failed write only costs a rebuild next run.
		if err := ds.store(e.key, e.t, tel); err != nil {
			tel.Counter("diskcache.write_errors").Inc()
			cc.warnf("table cache: writing %s: %v", diskPath(ds.dir, e.key), err)
		}
	}
}

// makeResident links a completed entry at the front of the LRU list,
// charges its size, and evicts least-recently-used entries until the
// resident total fits the budget (0 = unbounded). Caller holds cc.mu.
// The just-completed entry is at the front, so it is evicted only when
// it alone exceeds the budget.
func (cc *Cache) makeResident(e *cacheEntry, tel *telemetry.Sink) {
	e.size = tableMemBytes(e.t)
	e.resident = true
	cc.pushFront(e)
	cc.bytes += e.size
	tel.Counter("cache.bytes").Add(e.size)
	for cc.memCap > 0 && cc.bytes > cc.memCap {
		victim := cc.tail
		cc.unlink(victim)
		victim.resident = false
		delete(cc.tables, victim.key)
		cc.bytes -= victim.size
		tel.Counter("cache.evictions").Inc()
		tel.Counter("cache.bytes").Add(-victim.size)
	}
}

// pushFront links e at the MRU end. Caller holds cc.mu.
func (cc *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = cc.head
	if cc.head != nil {
		cc.head.prev = e
	}
	cc.head = e
	if cc.tail == nil {
		cc.tail = e
	}
}

// unlink removes e from the LRU list. Caller holds cc.mu; e must be
// linked.
func (cc *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		cc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		cc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// configMemBytes approximates one Config's resident footprint: the
// struct itself (two bools + string header + three ints + two int64s,
// padded) — codec strings are interned literals, not charged.
const configMemBytes = 64

// cacheEntryOverhead covers the entry, map slot and Table header for
// budget accounting; cached deterministic errors cost just this.
const cacheEntryOverhead = 256

// tableMemBytes estimates an entry's resident size for the LRU budget.
func tableMemBytes(t *Table) int64 {
	if t == nil {
		return cacheEntryOverhead
	}
	n := int64(len(t.NoTDC) + len(t.TDCExact) + len(t.TDCBest) + len(t.Best))
	return cacheEntryOverhead + n*configMemBytes
}
