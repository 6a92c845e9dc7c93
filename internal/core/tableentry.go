package core

// The disk cache's table entry: one table under its content key, in a
// fixed byte layout that reads the same on every architecture.
//
//	magic    "STBL"
//	version  one byte, entryVersion
//	key      uvarint length, then the content key's bytes
//	rows     NoTDC[1..MaxWidth], then TDCExact[1..MaxWidth], each Config
//	         as a flag byte (bit 0 Feasible, bit 1 UseTDC, bits 2-3 the
//	         index of its codec in entryCodecs) and five uvarints: Width,
//	         M, DictWords, Time and Volume (a negative value as its
//	         two's complement)
//	crc      CRC-32 (IEEE) of every byte before it, 4 bytes
//
// MaxWidth is not stored: the content key covers the normalized
// options, so the requesting options give it. The two rows are the
// whole table: what a style picks at a width is derived from them on
// demand (Table.Choose), so nothing derived is stored or recomputed on
// decoding. Every Config is written in its one shortest form, so an
// entry the decoder accepts re-encodes to the same bytes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	entryMagic = "STBL"
	// entryVersion follows the gob stream (1) and the bitpacked
	// container (2) of earlier revisions. Bump it whenever the layout
	// or the meaning of a Config changes.
	entryVersion = 3
	// entryMinConfig is the fewest bytes a Config takes: its flag byte
	// and five one-byte uvarints.
	entryMinConfig = 6
)

// entryCodecs numbers the codecs in a Config's flag byte.
var entryCodecs = [...]string{CodecDirect, CodecSelEnc, CodecDict}

// encodeEntry serializes t under its content key.
func encodeEntry(key string, t *Table) []byte {
	n := t.Opts.MaxWidth
	buf := make([]byte, 0, len(entryMagic)+1+binary.MaxVarintLen64+len(key)+2*n*16+4)
	buf = append(buf, entryMagic...)
	buf = append(buf, entryVersion)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	for _, row := range [2][]Config{t.NoTDC, t.TDCExact} {
		for u := 1; u <= n; u++ {
			cfg := row[u]
			var flags byte
			if cfg.Feasible {
				flags |= 1
			}
			if cfg.UseTDC {
				flags |= 2
			}
			for i, codec := range entryCodecs {
				if cfg.Codec == codec {
					flags |= byte(i) << 2
				}
			}
			buf = append(buf, flags)
			for _, v := range [5]int64{int64(cfg.Width), int64(cfg.M), int64(cfg.DictWords), cfg.Time, cfg.Volume} {
				buf = binary.AppendUvarint(buf, uint64(v))
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeEntry parses an entry and checks it against the content key
// and the options it was requested under. Any flaw is an error: the
// caller counts it as a corrupt entry and rebuilds.
func decodeEntry(data []byte, key string, opts TableOptions) (*Table, error) {
	head := len(entryMagic) + 1
	if len(data) < head+4 {
		return nil, fmt.Errorf("%d-byte entry", len(data))
	}
	if string(data[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("bad magic %q", data[:len(entryMagic)])
	}
	if v := data[len(entryMagic)]; v != entryVersion {
		return nil, fmt.Errorf("version %d (want %d)", v, entryVersion)
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errors.New("checksum mismatch")
	}
	r := entryReader{data: body, off: head}
	k := r.bytes(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if string(k) != key {
		return nil, errors.New("entry of another key")
	}
	n := opts.MaxWidth
	if n < 0 || len(body)-r.off < 2*n*entryMinConfig {
		return nil, fmt.Errorf("%d-byte entry too short for %d widths", len(data), n)
	}
	t := newTable(opts)
	for _, row := range [2][]Config{t.NoTDC, t.TDCExact} {
		for u := 1; u <= n; u++ {
			row[u] = r.config()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%d trailing bytes", len(body)-r.off)
	}
	return t, nil
}

// entryReader is a cursor over an entry's checksummed bytes; the first
// flaw sticks in err.
type entryReader struct {
	data []byte
	off  int
	err  error
}

// uvarint reads one uvarint in its shortest form.
func (r *entryReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || n > 1 && r.data[r.off+n-1] == 0 {
		r.err = fmt.Errorf("malformed uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// bytes reads the next n bytes, aliasing the entry.
func (r *entryReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.err = errors.New("truncated entry")
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// config reads one Config.
func (r *entryReader) config() Config {
	flags := r.bytes(1)
	if r.err != nil {
		return Config{}
	}
	codec := int(flags[0] >> 2)
	if codec >= len(entryCodecs) {
		r.err = fmt.Errorf("config flags %#x", flags[0])
		return Config{}
	}
	return Config{
		Feasible:  flags[0]&1 != 0,
		UseTDC:    flags[0]&2 != 0,
		Codec:     entryCodecs[codec],
		Width:     int(r.uvarint()),
		M:         int(r.uvarint()),
		DictWords: int(r.uvarint()),
		Time:      int64(r.uvarint()),
		Volume:    int64(r.uvarint()),
	}
}
