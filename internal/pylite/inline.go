package pylite

import "qfusor/internal/data"

// FuncOf extracts the parsed function body behind a UDF's function
// value, for core's relational inliner, which translates that body into
// engine expressions and is the one judge of whether it inlines. Returns
// false for non-PyLite callables (native Go UDFs, builtins, classes).
func FuncOf(v data.Value) (*FuncValue, bool) {
	if v.Kind != data.KindObject {
		return nil, false
	}
	fn, ok := v.P.(*FuncValue)
	return fn, ok
}
