// Package tablecodec is the compact on-disk container format ("format
// v2") for precomputed lookup-table payloads. The gob encoding it
// replaces pays reflection on every cold load and stores field names
// per entry; here a payload is a set of uint64 columns encoded as
// FastPFor-style fixed-width bitpacked blocks with a per-block
// exception list — the classic Lemire-family layout: most values in a
// block share a small bit width, the few outliers are patched from a
// side list — preceded by a small fixed header carrying magic, version,
// counts and checksums.
//
// The header is self-validating: magic, version and a header CRC are
// checked before anything else is touched, and the payload is guarded
// by its own length + CRC, so stale or corrupt entries are rejected
// cheaply (ReadHeader / Verify) without decoding a single block.
// Decoding is exact — Encode∘Decode is the identity on every payload
// (fuzz- and golden-tested) — and the byte layout is fixed
// little-endian, so entries are portable across architectures.
//
// The package is deliberately generic: it knows nothing about the
// lookup tables themselves. Callers (internal/core's disk cache) map
// their structures onto columns, a string table, and an opaque metadata
// blob, and get content addressing and schema checks from the Meta
// bytes they control.
package tablecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// ErrFormat is wrapped by every decoding failure: callers that treat
// any malformed entry as a cache miss can match this one sentinel.
var ErrFormat = errors.New("tablecodec: malformed entry")

// Version is the container format version written by Encode and
// required by Decode. It is "format v2" of the table cache: version 1
// was the gob encoding, which this package supersedes.
const Version = 2

// magic opens every entry; ReadHeader rejects data without it, a gob
// stream from the first format included (gob begins with a length
// byte).
const magic = "STC2"

// headerSize is the fixed prefix: magic, version, flags, metaLen,
// stringCount, columnCount, payloadLen, payloadCRC, headerCRC.
const headerSize = 32

// blockSize is the number of values per bitpacked block. 64 keeps the
// exception index a single byte and the per-block width search cheap.
const blockSize = 64

// Sanity bounds on header-declared counts, enforced before any
// allocation so a corrupt header cannot demand gigabytes.
const (
	maxColumns = 1 << 16
	maxStrings = 1 << 16
	maxValues  = 1 << 26 // per column
)

// Payload is one decoded entry: an opaque metadata blob (the caller's
// schema/key/version check), a deduplicated string table, and the
// uint64 value columns.
type Payload struct {
	Meta    []byte
	Strings []string
	Columns [][]uint64
}

// Header is the decoded fixed prefix of an entry.
type Header struct {
	Version    int
	MetaLen    int
	Strings    int
	Columns    int
	PayloadLen int
}

// ZigZag maps a signed value onto the unsigned column domain so that
// small-magnitude values (of either sign) stay small: 0,-1,1,-2 →
// 0,1,2,3. UnZigZag inverts it exactly for every int64.
func ZigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encode serializes the payload. The layout is deterministic: one
// input, one byte sequence (the golden-file test pins it).
func Encode(p *Payload) []byte {
	body := make([]byte, 0, 256+len(p.Meta))
	body = append(body, p.Meta...)
	for _, s := range p.Strings {
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	for _, col := range p.Columns {
		body = binary.AppendUvarint(body, uint64(len(col)))
		for off := 0; off < len(col); off += blockSize {
			end := off + blockSize
			if end > len(col) {
				end = len(col)
			}
			body = appendBlock(body, col[off:end])
		}
	}

	out := make([]byte, headerSize, headerSize+len(body))
	copy(out[0:4], magic)
	binary.LittleEndian.PutUint16(out[4:6], Version)
	binary.LittleEndian.PutUint16(out[6:8], 0) // flags, reserved
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(p.Meta)))
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(p.Strings)))
	binary.LittleEndian.PutUint32(out[16:20], uint32(len(p.Columns)))
	binary.LittleEndian.PutUint32(out[20:24], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[24:28], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(out[28:32], crc32.ChecksumIEEE(out[0:28]))
	return append(out, body...)
}

// appendBlock bitpacks up to blockSize values: a width byte, an
// exception-count byte, the packed low bits of every value, then the
// exceptions (index byte + uvarint of the bits above the width). The
// width minimizing the encoded size wins; ties go to the narrower
// width.
func appendBlock(dst []byte, vals []uint64) []byte {
	b, excCount := chooseWidth(vals)
	dst = append(dst, byte(b), byte(excCount))
	// Packed low bits, LSB-first, addressed bitwise (a single 64-bit
	// accumulator overflows for widths above 56).
	start := len(dst)
	dst = append(dst, make([]byte, (len(vals)*b+7)/8)...)
	packed := dst[start:]
	mask := widthMask(b)
	for i, v := range vals {
		setBits(packed, i*b, b, v&mask)
	}
	if b < 64 {
		for i, v := range vals {
			if high := v >> b; high != 0 {
				dst = append(dst, byte(i))
				dst = binary.AppendUvarint(dst, high)
			}
		}
	}
	return dst
}

// widthMask is (1<<b)-1 with the b == 64 case handled.
func widthMask(b int) uint64 {
	if b >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(b) - 1
}

// setBits writes the low b bits of v into p at bit offset pos,
// LSB-first. p must already be zeroed there (freshly appended).
func setBits(p []byte, pos, b int, v uint64) {
	for i := 0; i < b; {
		idx, off := (pos+i)>>3, (pos+i)&7
		take := 8 - off
		if take > b-i {
			take = b - i
		}
		p[idx] |= byte(((v >> uint(i)) & (1<<uint(take) - 1)) << uint(off))
		i += take
	}
}

// getBits reads b bits from p at bit offset pos, LSB-first — the exact
// inverse of setBits.
func getBits(p []byte, pos, b int) uint64 {
	var v uint64
	for i := 0; i < b; {
		idx, off := (pos+i)>>3, (pos+i)&7
		take := 8 - off
		if take > b-i {
			take = b - i
		}
		v |= uint64(p[idx]>>uint(off)&(1<<uint(take)-1)) << uint(i)
		i += take
	}
	return v
}

// chooseWidth picks the bit width minimizing the block's encoded size.
// Candidates are the distinct bit lengths present (plus zero): any
// other width is dominated by the next length down.
func chooseWidth(vals []uint64) (width, exceptions int) {
	var lens [65]int8 // 1 where some value has this bit length
	for _, v := range vals {
		lens[bits.Len64(v)] = 1
	}
	lens[0] = 1
	bestW, bestExc, bestCost := -1, 0, 0
	for b := 0; b <= 64; b++ {
		if lens[b] == 0 {
			continue
		}
		cost := (len(vals)*b + 7) / 8
		exc := 0
		if b < 64 {
			for _, v := range vals {
				if high := v >> b; high != 0 {
					exc++
					cost += 1 + uvarintLen(high)
				}
			}
		}
		if bestW < 0 || cost < bestCost {
			bestW, bestExc, bestCost = b, exc, cost
		}
	}
	return bestW, bestExc
}

// uvarintLen is the encoded size of v under binary.AppendUvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ReadHeader validates the fixed prefix alone — magic, version, header
// CRC, and count sanity bounds — without touching the payload. It is
// the cheap staleness filter: a stale or foreign entry fails here in a
// few dozen byte reads.
func ReadHeader(data []byte) (Header, error) {
	if len(data) < headerSize {
		return Header{}, fmt.Errorf("%w: %d-byte entry shorter than the %d-byte header", ErrFormat, len(data), headerSize)
	}
	if string(data[0:4]) != magic {
		return Header{}, fmt.Errorf("%w: bad magic %q", ErrFormat, data[0:4])
	}
	if got := crc32.ChecksumIEEE(data[0:28]); got != binary.LittleEndian.Uint32(data[28:32]) {
		return Header{}, fmt.Errorf("%w: header checksum mismatch", ErrFormat)
	}
	h := Header{
		Version:    int(binary.LittleEndian.Uint16(data[4:6])),
		MetaLen:    int(binary.LittleEndian.Uint32(data[8:12])),
		Strings:    int(binary.LittleEndian.Uint32(data[12:16])),
		Columns:    int(binary.LittleEndian.Uint32(data[16:20])),
		PayloadLen: int(binary.LittleEndian.Uint32(data[20:24])),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: version %d (want %d)", ErrFormat, h.Version, Version)
	}
	if h.Strings > maxStrings || h.Columns > maxColumns || h.MetaLen > h.PayloadLen {
		return Header{}, fmt.Errorf("%w: implausible header counts", ErrFormat)
	}
	return h, nil
}

// Verify is ReadHeader plus the payload guards — exact length and
// payload CRC — still without decoding any block. A Verify-clean entry
// decodes or the format itself is at fault.
func Verify(data []byte) (Header, error) {
	h, err := ReadHeader(data)
	if err != nil {
		return Header{}, err
	}
	if len(data) != headerSize+h.PayloadLen {
		return Header{}, fmt.Errorf("%w: entry is %d bytes, header promises %d", ErrFormat, len(data), headerSize+h.PayloadLen)
	}
	if got := crc32.ChecksumIEEE(data[headerSize:]); got != binary.LittleEndian.Uint32(data[24:28]) {
		return Header{}, fmt.Errorf("%w: payload checksum mismatch", ErrFormat)
	}
	return h, nil
}

// Decode parses a complete entry. Every failure wraps ErrFormat.
func Decode(data []byte) (*Payload, error) {
	h, err := Verify(data)
	if err != nil {
		return nil, err
	}
	r := reader{data: data[headerSize:]}
	p := &Payload{Meta: append([]byte(nil), r.take(h.MetaLen)...)}
	if h.Strings > 0 {
		p.Strings = make([]string, h.Strings)
		for i := range p.Strings {
			n := r.uvarint()
			if n > uint64(len(r.data)-r.off) {
				return nil, fmt.Errorf("%w: string %d overruns the payload", ErrFormat, i)
			}
			p.Strings[i] = string(r.take(int(n)))
		}
	}
	if h.Columns > 0 {
		p.Columns = make([][]uint64, h.Columns)
		for i := range p.Columns {
			col, err := r.column()
			if err != nil {
				return nil, fmt.Errorf("column %d: %w", i, err)
			}
			p.Columns[i] = col
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated payload", ErrFormat)
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last column", ErrFormat, len(r.data)-r.off)
	}
	return p, nil
}

// reader is a cursor over the payload with sticky error state.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrFormat
	}
}

// take returns the next n bytes (aliasing data) or an empty slice after
// marking the reader failed.
func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.data)-r.off {
		r.fail()
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) byte() byte {
	b := r.take(1)
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// column decodes one column: a count, then bitpacked blocks.
func (r *reader) column() ([]uint64, error) {
	n := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated column header", ErrFormat)
	}
	if n > maxValues {
		return nil, fmt.Errorf("%w: column declares %d values", ErrFormat, n)
	}
	col := make([]uint64, 0, min(int(n), (len(r.data)-r.off)*8+blockSize))
	for len(col) < int(n) {
		cnt := int(n) - len(col)
		if cnt > blockSize {
			cnt = blockSize
		}
		col = r.block(col, cnt)
		if r.err != nil {
			return nil, fmt.Errorf("%w: truncated block", ErrFormat)
		}
	}
	return col, nil
}

// block decodes one bitpacked block of cnt values, appending to col.
func (r *reader) block(col []uint64, cnt int) []uint64 {
	b := int(r.byte())
	exc := int(r.byte())
	if r.err != nil {
		return col
	}
	if b > 64 || exc > cnt {
		r.fail()
		return col
	}
	packed := r.take((cnt*b + 7) / 8)
	if r.err != nil {
		return col
	}
	base := len(col)
	switch {
	case b == 0:
		for i := 0; i < cnt; i++ {
			col = append(col, 0)
		}
	case b <= 57:
		// Word-at-a-time fast path: read 8 bytes at the value's byte
		// offset and shift the bit remainder away. The remainder is at
		// most 7 bits, so b+7 <= 64 keeps every value inside one load.
		// The packed bytes are copied into a zero-padded scratch buffer
		// so loads near the end never run past the payload (a block
		// packs at most 64 values x 64 bits = 512 bytes).
		var scratch [512 + 8]byte
		copy(scratch[:], packed)
		mask := widthMask(b)
		for i, pos := 0, 0; i < cnt; i, pos = i+1, pos+b {
			w := binary.LittleEndian.Uint64(scratch[pos>>3:])
			col = append(col, w>>uint(pos&7)&mask)
		}
	default:
		for i := 0; i < cnt; i++ {
			col = append(col, getBits(packed, i*b, b))
		}
	}
	if b < 64 {
		prev := -1
		for e := 0; e < exc; e++ {
			idx := int(r.byte())
			high := r.uvarint()
			if r.err != nil {
				return col
			}
			// Indices are strictly increasing by construction; a
			// repeated or out-of-range index is corruption. A zero high
			// part would have been no exception at all.
			if idx <= prev || idx >= cnt || high == 0 {
				r.fail()
				return col
			}
			prev = idx
			col[base+idx] |= high << b
		}
	} else if exc != 0 {
		r.fail()
	}
	return col
}
