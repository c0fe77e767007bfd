package main

import (
	"math"
	"testing"
)

func TestParseSizeValid(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"4096", 4096},
		{"1K", 1 << 10},
		{"64k", 64 << 10},
		{"256M", 256 << 20},
		{"7m", 7 << 20},
		{"1G", 1 << 30},
		{"2g", 2 << 30},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if err != nil {
			t.Errorf("parseSize(%q): unexpected error %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseSizeInvalid(t *testing.T) {
	cases := []string{
		"",            // empty
		"M",           // suffix only
		"G",           // suffix only
		"abc",         // not a number
		"12q",         // unknown suffix
		"1.5M",        // fractional
		"0",           // zero
		"0K",          // zero with suffix
		"-1",          // negative
		"-64M",        // negative with suffix
		"9999999999G", // overflows int64 bytes
		"1 M",         // embedded space
		"MM",          // garbage
	}
	for _, c := range cases {
		got, err := parseSize(c)
		if err == nil {
			t.Errorf("parseSize(%q) = %d, want error", c, got)
		}
	}
	// Largest representable inputs still parse.
	if v, err := parseSize("8589934591G"); err != nil || v != 8589934591*(1<<30) {
		t.Errorf("parseSize(8589934591G) = %d, %v; want max-range success", v, err)
	}
	if _, err := parseSize("8589934592G"); err == nil {
		t.Errorf("parseSize(8589934592G) succeeded, want overflow error")
	}
	if v, err := parseSize("9223372036854775807"); err != nil || v != math.MaxInt64 {
		t.Errorf("parseSize(MaxInt64) = %d, %v; want success", v, err)
	}
}
