package core

import (
	"fmt"

	"qfusor/internal/ffi"
)

// Tier is an execution tier: what Options.Tier pins, and what
// Report.Tiers records for each wrapper or inlined call site.
type Tier string

const (
	// TierAuto leaves the decision to the optimizer: the inlining pass
	// substitutes every call site whose UDF body translates, and a fused
	// section runs on the VM whenever its trace lowers.
	TierAuto Tier = "auto"
	// TierVM runs fused sections on the vectorized bytecode VM whenever
	// their trace lowers, with the inlining pass off.
	TierVM Tier = "vm"
	// TierClosure runs fused sections on their compiled bodies, with the
	// inlining pass off.
	TierClosure Tier = "closure"
	// TierInlined is the reported tier of a call site the inlining pass
	// substituted (never a pin).
	TierInlined Tier = "inlined"
)

// ParseTier validates a tier pin from outside the program: vm, closure
// or auto ("" is auto).
func ParseTier(s string) (Tier, error) {
	switch t := Tier(s); t {
	case "":
		return TierAuto, nil
	case TierAuto, TierVM, TierClosure:
		return t, nil
	}
	return "", fmt.Errorf("unknown tier %q (want vm, closure or auto)", s)
}

// wrapperTier is the tier a fused wrapper runs on, fixed when its trace
// was lowered: vm when the lowering put it on the VM, closure when the
// wrapper is closure-pinned or its trace does not lower.
func wrapperTier(u *ffi.UDF) Tier {
	if u.Trace().VM {
		return TierVM
	}
	return TierClosure
}
