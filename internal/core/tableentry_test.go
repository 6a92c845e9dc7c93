package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// layoutKey is the content key of the test entries.
const layoutKey = "layout-key"

// layoutTable is a table of n widths with every flag and codec and
// values from one byte to a full int64, its derived rows computed by
// deriveRows.
func layoutTable(n int) *Table {
	t := newTable(TableOptions{MaxWidth: n, BandSamples: 48})
	for u := 1; u <= n; u++ {
		t.NoTDC[u] = Config{Feasible: true, Width: u, M: min(u, 3), Time: 90000 / int64(min(u, 3)), Volume: 4800}
		switch {
		case u < 3:
		case u%2 == 1:
			t.TDCExact[u] = Config{Feasible: true, UseTDC: true, Codec: CodecSelEnc, Width: u, M: 1 << u, Time: 30000 - int64(u), Volume: 1 << 40}
		default:
			t.TDCExact[u] = Config{Feasible: true, UseTDC: true, Codec: CodecDict, Width: u, M: 200, DictWords: 64, Time: 1<<63 - 1, Volume: 12}
		}
	}
	deriveRows(t)
	return t
}

// reseal recomputes an entry's trailing checksum over its other bytes.
func reseal(data []byte) []byte {
	body := data[: len(data)-4 : len(data)-4]
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestTableEntryLayout pins the byte layout: the entry of layoutTable(4)
// must equal testdata/table_entry.bin and decode back to the table. A
// layout change fails here until entryVersion is bumped and the file
// regenerated with -update.
func TestTableEntryLayout(t *testing.T) {
	tbl := layoutTable(4)
	path := filepath.Join("testdata", "table_entry.bin")
	data := encodeEntry(layoutKey, tbl)
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading the pinned entry (regenerate with -update): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("entry differs from %s (%d vs %d bytes): the layout changed, so bump entryVersion", path, len(data), len(want))
	}
	if want[len(entryMagic)] != entryVersion {
		t.Fatalf("pinned entry has version %d, want %d", want[len(entryMagic)], entryVersion)
	}
	got, err := decodeEntry(want, layoutKey, tbl.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tbl) {
		t.Fatal("pinned entry decodes to another table")
	}
}

// TestTableEntryRejects: every flaw the decoder guards against is an
// error, never a panic or a table: a short entry, a bad magic, version
// or checksum, another key or MaxWidth, trailing bytes, an unknown flag
// or codec, a uvarint longer than its shortest form, an earlier
// revision's entry, every truncation and every single-bit flip.
func TestTableEntryRejects(t *testing.T) {
	good := encodeEntry(layoutKey, layoutTable(4))
	opts := layoutTable(4).Opts
	// The first Config's flag byte follows the magic, the version and
	// the key with its one-byte length.
	flagsAt := len(entryMagic) + 2 + len(layoutKey)
	edit := func(f func(d []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := []struct {
		name string
		data []byte
		opts TableOptions
	}{
		{"empty", nil, opts},
		{"short", good[:len(entryMagic)+4], opts},
		{"bad-magic", edit(func(d []byte) []byte { d[0] = 'X'; return reseal(d) }), opts},
		{"stale-version", edit(func(d []byte) []byte { d[len(entryMagic)]++; return reseal(d) }), opts},
		{"checksum", edit(func(d []byte) []byte { d[len(d)-1] ^= 1; return d }), opts},
		{"other-key", encodeEntry("other-key!", layoutTable(4)), opts},
		{"fewer-widths", good, TableOptions{MaxWidth: 3, BandSamples: 48}},
		{"more-widths", good, TableOptions{MaxWidth: 5, BandSamples: 48}},
		{"negative-widths", good, TableOptions{MaxWidth: -2}},
		{"trailing-byte", edit(func(d []byte) []byte { return reseal(append(d, 0)) }), opts},
		{"unknown-codec", edit(func(d []byte) []byte { d[flagsAt] |= 3 << 2; return reseal(d) }), opts},
		{"unknown-flag", edit(func(d []byte) []byte { d[flagsAt] |= 1 << 4; return reseal(d) }), opts},
		{"long-uvarint", edit(func(d []byte) []byte {
			// The first Config's Width, 1, as the two bytes 0x81 0x00.
			d = append(d[:flagsAt+2], append([]byte{0}, d[flagsAt+2:]...)...)
			d[flagsAt+1] |= 0x80
			return reseal(d)
		}), opts},
		{"v2-container", []byte(v2Entry), opts},
		{"gob", []byte(gobEntry), opts},
	}
	for _, tc := range cases {
		if tbl, err := decodeEntry(tc.data, layoutKey, tc.opts); err == nil {
			t.Errorf("%s: decoded to a table of %d widths", tc.name, len(tbl.Best)-1)
		}
	}
	for n := range len(good) {
		if _, err := decodeEntry(good[:n], layoutKey, opts); err == nil {
			t.Fatalf("decoded a %d/%d-byte truncation", n, len(good))
		}
	}
	for bit := range 8 * len(good) {
		d := append([]byte(nil), good...)
		d[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeEntry(d, layoutKey, opts); err == nil {
			t.Fatalf("decoded an entry with bit %d flipped", bit)
		}
	}
}

// FuzzTableEntry holds the decoder to arbitrary bytes at any MaxWidth,
// as found and with the checksum resealed so the fuzzer reaches the
// rows: it never panics, and an entry it accepts re-encodes to the same
// bytes.
func FuzzTableEntry(f *testing.F) {
	for _, n := range []int{0, 1, 4, 9} {
		f.Add(uint8(n), encodeEntry(layoutKey, layoutTable(n)))
	}
	neg := layoutTable(2)
	neg.NoTDC[1].Time, neg.TDCExact[2].DictWords = -1, -1<<62
	f.Add(uint8(2), encodeEntry(layoutKey, neg))
	good := encodeEntry(layoutKey, layoutTable(4))
	f.Add(uint8(4), good[:len(good)-7])
	f.Add(uint8(4), append(good, 1, 2, 3))
	f.Add(uint8(4), []byte{})
	f.Add(uint8(4), []byte(v2Entry))
	f.Add(uint8(4), []byte(gobEntry))
	f.Fuzz(func(t *testing.T, maxWidth uint8, data []byte) {
		opts := TableOptions{MaxWidth: int(maxWidth), BandSamples: 48}
		entries := [][]byte{data}
		if len(data) >= 4 {
			entries = append(entries, reseal(append([]byte(nil), data...)))
		}
		for _, entry := range entries {
			tbl, err := decodeEntry(entry, layoutKey, opts)
			if err != nil {
				continue
			}
			if re := encodeEntry(layoutKey, tbl); !bytes.Equal(re, entry) {
				t.Fatalf("accepted entry re-encodes to other bytes:\n got %x\nwant %x", re, entry)
			}
		}
	})
}
