package core

import "testing"

func TestParseTier(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Tier
		ok   bool
	}{
		{"", TierAuto, true},
		{"auto", TierAuto, true},
		{"vm", TierVM, true},
		{"closure", TierClosure, true},
		{"inline", TierInline, true},
		{"inlined", "", false}, // a reported tier, never a pin
		{"jit-trace", "", false},
		{"VM", "", false},
		{"bogus", "", false},
	} {
		got, err := ParseTier(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseTier(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
