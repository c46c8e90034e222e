package pylite

import (
	"errors"
	"fmt"
)

// PyError is a Python-level exception raised during UDF execution. The
// FFI wrapper layer converts it into an engine error (wrappers run UDF
// logic under a try/except per the paper's robustness note).
type PyError struct {
	Type string // exception class name: ValueError, TypeError, ...
	Msg  string
	Line int
}

// Error implements error.
func (e *PyError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s: %s (line %d)", e.Type, e.Msg, e.Line)
	}
	return fmt.Sprintf("%s: %s", e.Type, e.Msg)
}

func raisef(typ, format string, args ...any) error {
	return &PyError{Type: typ, Msg: fmt.Sprintf(format, args...)}
}

func typeErrf(format string, args ...any) error {
	return raisef("TypeError", format, args...)
}

func valueErrf(format string, args ...any) error {
	return raisef("ValueError", format, args...)
}

func keyErrf(format string, args ...any) error {
	return raisef("KeyError", format, args...)
}

func indexErrf(format string, args ...any) error {
	return raisef("IndexError", format, args...)
}

func attrErrf(format string, args ...any) error {
	return raisef("AttributeError", format, args...)
}

func nameErrf(format string, args ...any) error {
	return raisef("NameError", format, args...)
}

// errGenStopped is what a generator body's yield returns once its
// consumer has left (an error, break or return out of a drain, or
// Close): the body unwinds silently. It is no PyError, so no except
// clause catches it.
var errGenStopped = errors.New("pylite: generator stopped")

// errLoopExit is what a consumer returns to leave an iteration early: a
// for loop's break or return, any() and all() once they know the
// answer. The consumer that returned it also takes it back.
var errLoopExit = errors.New("pylite: loop exit")

// IsPyError reports whether err is (or wraps) a Python-level exception,
// returning it if so.
func IsPyError(err error) (*PyError, bool) {
	var pe *PyError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}
