package cli

// Byte sizes for the cache budget flags (-table-cache-mem,
// -table-cache-size) and socserve's -max-body: "256M", "2GiB", "1024"
// and friends. Suffixes are binary (K = KiB = 1024) — budgets, not
// disk-marketing sizes — and case-insensitive, with an optional
// "B"/"iB" tail.

import (
	"fmt"
	"strconv"
	"strings"
)

// suffixes maps a normalized (upper-case, B/iB-stripped) unit to its
// multiplier.
var suffixes = map[string]int64{
	"":  1,
	"K": 1 << 10,
	"M": 1 << 20,
	"G": 1 << 30,
	"T": 1 << 40,
}

// ParseBytes converts a human size ("64M", "2GiB", "1536K", "100000")
// to bytes. The empty string and "0" mean zero (unbounded for the cache
// flags). Fractional values are allowed with a unit ("1.5G") and
// truncate toward zero.
func ParseBytes(s string) (int64, error) {
	in := strings.TrimSpace(s)
	if in == "" {
		return 0, nil
	}
	u := strings.ToUpper(in)
	u = strings.TrimSuffix(u, "IB")
	u = strings.TrimSuffix(u, "B")
	num := u
	unit := ""
	if n := len(u); n > 0 {
		if c := u[n-1]; c < '0' || c > '9' {
			num, unit = u[:n-1], u[n-1:]
		}
	}
	mult, ok := suffixes[unit]
	if !ok {
		return 0, fmt.Errorf("unknown size suffix in %q", s)
	}
	if num == "" {
		return 0, fmt.Errorf("no number in %q", s)
	}
	if mult == 1 || !strings.Contains(num, ".") {
		v, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad size %q: %w", s, err)
		}
		if v < 0 {
			return 0, fmt.Errorf("negative size %q", s)
		}
		if mult > 1 && v > (1<<63-1)/mult {
			return 0, fmt.Errorf("size %q overflows", s)
		}
		return v * mult, nil
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if f < 0 {
		return 0, fmt.Errorf("negative size %q", s)
	}
	v := f * float64(mult)
	if v >= 1<<63 {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return int64(v), nil
}
