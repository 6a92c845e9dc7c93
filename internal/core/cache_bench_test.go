package core

// Benchmarks for the cache tiers, archived by `make bench-json`: the
// cold-load time and size of a disk entry, and the memory-hit
// throughput of the Cache under parallel load.

import (
	"os"
	"testing"

	"soctap/internal/soc"
)

// BenchmarkDiskLoadV1VsV2 measures one full cold load of a table entry
// at MaxWidth 64 — file read, checksum, decode of the two stored rows,
// the derived rows' reduction — and reports the
// entry's size as entry-bytes. The benchmark and its v2-bitpack arm
// keep the names they had when they compared the gob stream with the
// bitpacked container, both gone, so archived runs still line up.
func BenchmarkDiskLoadV1VsV2(b *testing.B) {
	c := compressibleCore(77)
	opts := TableOptions{MaxWidth: 64}.normalized()
	tab, err := BuildTable(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	key := contentKey(c, opts)
	dir := b.TempDir()
	if err := storeDiskTable(dir, key, tab); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(diskPath(dir, key))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("v2-bitpack", func(b *testing.B) {
		b.ReportMetric(float64(info.Size()), "entry-bytes")
		for i := 0; i < b.N; i++ {
			t, status, reason := loadDiskTable(dir, key, opts)
			if status != diskHit || t == nil {
				b.Fatalf("load status %v: %v", status, reason)
			}
		}
	})
}

// BenchmarkCacheGetParallel hammers warm Gets on one Cache across many
// goroutines and 16 distinct keys: every probe is a memory hit, so the
// measured cost is key hashing plus the map probe and LRU splice under
// the one lock. The arm keeps the name it had as the baseline of the
// hash-sharded cache, so archived runs still line up.
func BenchmarkCacheGetParallel(b *testing.B) {
	const nCores = 16
	opts := TableOptions{MaxWidth: 6, Workers: 1}
	cores := make([]*soc.Core, nCores)
	for i := range cores {
		cores[i] = compressibleCore(int64(900 + i))
	}

	b.Run("single-lock", func(b *testing.B) {
		var cc Cache
		for _, c := range cores {
			if _, err := cc.Get(c, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := cc.Get(cores[i%nCores], opts); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}
