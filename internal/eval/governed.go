package eval

import (
	"kdb/internal/term"
)

// StopError is the error an engine returns when the query governor
// stopped an evaluation: it wraps the underlying breach (a
// governor.LimitError, a cancellation matching governor.ErrCanceled /
// context.DeadlineExceeded, or a governor.PanicError) and carries the
// statistics snapshot at stop time, with EvalStats.StopReason set.
type StopError struct {
	// Stats is the evaluation record at the moment the governor fired.
	Stats *EvalStats
	// Err is the underlying breach.
	Err error
}

func (e *StopError) Error() string { return e.Err.Error() }

// Unwrap exposes the breach to errors.Is / errors.As.
func (e *StopError) Unwrap() error { return e.Err }

// DeriveHook, when non-nil, observes every head atom the engines derive
// (bottom-up sinks and top-down table inserts). The atom's Args are a
// buffer the join loop reuses: valid only during the call. It exists so
// tests can inject failures — including panics — inside rule evaluation;
// production code leaves it nil.
var DeriveHook func(term.Atom)
