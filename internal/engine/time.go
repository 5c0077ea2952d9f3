// Package engine provides the deterministic simulation kernel used by the
// LRP machine model: virtual time, contended service resources (memory
// controllers, LLC banks), completion tracking for in-flight persists, and
// a deterministic PRNG.
//
// The kernel is intentionally analytic rather than event-driven: the
// scheduler in package memsys always advances the simulated hardware
// thread with the smallest local clock, and every resource answers the
// question "if a request arrives at time t, when does it complete?". This
// keeps the whole simulation single-threaded, allocation-light and exactly
// reproducible for a given seed.
package engine

import "fmt"

// Time is a point in virtual time, measured in processor cycles.
// The simulator never wraps: 2^63 cycles at 2.5GHz is ~117 years.
type Time int64

// Infinity is a time later than any reachable simulation time.
const Infinity Time = 1<<63 - 1

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

func (t Time) String() string {
	return fmt.Sprintf("%dcy", int64(t))
}
