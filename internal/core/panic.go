package core

// Panic containment at the core package boundary. The evaluation engine
// fans table builds out over worker goroutines (forEachEval,
// buildSelectors); a panic inside one of those workers — a kernel bug,
// a malformed core that slipped past validation — would otherwise kill
// the whole process, and a panic inside a singleflight table build
// would additionally strand every waiter on the poisoned cache entry.
// Instead, every worker converts panics into a *PanicError carrying the
// offending core and (w, m) evaluation point, and the error propagates
// through the normal error paths (including the singleflight entry,
// which is evicted so later callers rebuild rather than inherit the
// failure). The architecture search runs on the calling goroutine
// under one deferred recover (searchCtx.search).

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered at the core package boundary,
// converted into an error instead of unwinding into the caller (or
// killing the process when raised on a worker goroutine). sim.VerifyPlan
// returns one too when a core's replay panics, with the replayed
// configuration as its Point.
type PanicError struct {
	Core  string // core being evaluated ("" when unknown)
	Point string // evaluation point, e.g. "tdc band w=12" or "no-tdc m=3"
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine, for diagnostics
}

// Error formats the contained panic with its core/(w, m) point.
func (e *PanicError) Error() string {
	if e.Core == "" {
		return fmt.Sprintf("core: panic during %s: %v", e.Point, e.Value)
	}
	return fmt.Sprintf("core: panic evaluating %s (%s): %v", e.Core, e.Point, e.Value)
}

// newPanicError captures the recovered value v and the current stack.
func newPanicError(core, point string, v any) *PanicError {
	return &PanicError{Core: core, Point: point, Value: v, Stack: debug.Stack()}
}

// uncacheable reports whether a build outcome must not be memoized by
// the singleflight cache: cancellation reflects the caller's context,
// not the build, and a contained panic may be environmental — in both
// cases the poisoned entry is evicted so a later Get retries, whereas
// deterministic build errors stay cached (retrying cannot succeed).
func uncacheable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var pe *PanicError
	return errors.As(err, &pe)
}

// canceled reports whether err is a context cancellation or deadline.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
