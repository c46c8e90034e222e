package core

import (
	"fmt"

	"qfusor/internal/ffi"
)

// Tier is an execution tier: what Options.Tier pins, and what
// Report.Tiers records for each wrapper (ffi.Trace.Tier: vm, closure
// or ffi.TierMixed) or inlined call site.
type Tier = ffi.Tier

const (
	// TierAuto leaves the decision to the optimizer: the inlining pass
	// substitutes every call site whose UDF body translates, and each
	// call of a fused section runs on the VM when its UDF has a program.
	TierAuto Tier = "auto"
	// TierVM runs each call of a fused section on the vectorized
	// bytecode VM when its UDF has a program, with the inlining pass
	// off.
	TierVM = ffi.TierVM
	// TierClosure runs fused sections on their compiled bodies, with the
	// inlining pass off.
	TierClosure = ffi.TierClosure
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
