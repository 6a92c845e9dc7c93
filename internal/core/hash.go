package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"soctap/internal/soc"
)

// contentKey returns a hex digest identifying the lookup table for
// (core, options): a hash of every core field that influences table
// contents plus the normalized TableOptions. Two structurally identical
// cores — e.g. the same design parsed from disk twice, or uploaded by
// two tenants under different names — produce the same key, so they
// share in-memory cache entries and on-disk cache files. The name and
// the gate count are deliberately excluded (neither enters a Config);
// Workers is erased by normalization.
//
// Nor does a cached outcome carry a name. A table holds only options
// and rows, and of the build errors, the deterministic ones that stay
// cached, none names the core: wrapper.checkM does, but a build asks
// only for m in [1, MaxWrapperChains()], which it accepts; the rest
// (MaxWidth, the cube generator's spec checks) name no core. A
// *PanicError, which does, is never cached.
//
// The leading version string salts the digest: any change to the hash
// inputs or to the meaning of a Config bumps it, orphaning (never
// corrupting) old disk-cache entries.
const contentKeyVersion = "soctap-table-key-v2"

func contentKey(c *soc.Core, opts TableOptions) string {
	h := sha256.New()
	w := hashWriter{h: h}
	w.str(contentKeyVersion)
	w.ints(c.Inputs, c.Outputs, c.Bidirs, len(c.ScanChains))
	for _, l := range c.ScanChains {
		w.ints(l)
	}
	w.ints(c.Patterns)
	if c.ExplicitCubes != nil {
		// Explicit test sets are hashed in full: the generator fields are
		// ignored when cubes are attached directly.
		w.str("cubes")
		w.ints(c.ExplicitCubes.NumBits, len(c.ExplicitCubes.Cubes))
		for _, cb := range c.ExplicitCubes.Cubes {
			w.ints(cb.NumBits, len(cb.Care))
			for _, bit := range cb.Care {
				v := uint64(bit.Pos) << 1
				if bit.Value {
					v |= 1
				}
				w.u64(v)
			}
		}
	} else {
		w.str("gen")
		w.f64(c.CareDensity)
		w.f64(c.Clustering)
		w.f64(c.DensityDecay)
		w.u64(uint64(c.Seed))
	}
	w.str("opts")
	w.ints(opts.MaxWidth, opts.BandSamples)
	return hex.EncodeToString(h.Sum(nil))
}

// hashWriter feeds values to a hash with unambiguous framing (strings
// are length-prefixed, numbers fixed-width little-endian).
type hashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *hashWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *hashWriter) ints(vs ...int) {
	for _, v := range vs {
		w.u64(uint64(int64(v)))
	}
}

func (w *hashWriter) f64(v float64) {
	// Bit pattern, so every distinct float hashes distinctly; generator
	// parameters are compared exactly.
	w.u64(math.Float64bits(v))
}

func (w *hashWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}
