package core

import (
	"strings"
	"testing"
)

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
		{"inline", "", false},  // auto inlines every site that translates
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
	if _, err := ParseTier("inline"); err == nil || !strings.Contains(err.Error(), "want vm, closure or auto") {
		t.Errorf("ParseTier(\"inline\") error %v does not list the accepted tiers", err)
	}
}
