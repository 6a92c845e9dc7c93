package cli

import "testing"

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"", 0},
		{"0", 0},
		{"512", 512},
		{"100000", 100000},
		{"1K", 1024},
		{"1k", 1024},
		{"1KB", 1024},
		{"1KiB", 1024},
		{"1kib", 1024},
		{"64M", 64 << 20},
		{"64MB", 64 << 20},
		{"2G", 2 << 30},
		{"2GiB", 2 << 30},
		{"1T", 1 << 40},
		{"1.5G", 3 << 29},
		{"0.5K", 512},
		{" 64M ", 64 << 20},
		{"1536K", 1536 << 10},
		{"8191B", 8191},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"x", "12Q", "-1", "-1K", "M", "1..5G", "9999999999T", "1 5K"} {
		if v, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want error", in, v)
		}
	}
}
