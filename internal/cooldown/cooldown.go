// Package cooldown is the endpoint-health state machine shared by the
// scheduler's daemon endpoints (internal/sched) and the result mesh's
// peers (internal/mesh): a failing endpoint sits out a capped
// exponential cooldown, and one success puts it back in rotation. The
// package imports nothing from arcsim, so any layer can use it without
// an import cycle.
package cooldown

import "time"

// Default cooldown shape: the first failure benches for DefaultBase,
// each consecutive failure doubles it, up to DefaultMax.
const (
	DefaultBase = time.Second
	DefaultMax  = 30 * time.Second
)

// maxShift bounds the backoff exponent. Doubling saturates any sane max
// long before this; the cap keeps the shift well-defined (a shift ≥ 63
// on a Duration is overflow, and an overflowed value landing in a clamp
// is not behavior to rely on).
const maxShift = 16

// Backoff returns base·2^n capped at max, for n ≥ 0. It is the one
// place the capped exponential arithmetic lives: State.Down benches
// endpoints with it and client.Retry spaces its retries with it.
func Backoff(n int, base, max time.Duration) time.Duration {
	if n >= 0 && n < maxShift && base <= max>>n {
		return base << n
	}
	return max
}

// State is one endpoint's health record: consecutive failures and the
// time its cooldown ends. The zero value is healthy. State does no
// locking; owners guard it with their own mutex and pass their own
// clock's now, so a virtual-clock harness drives it deterministically.
type State struct {
	fails int
	until time.Time
}

// Healthy reports whether the endpoint is in rotation at now.
func (s *State) Healthy(now time.Time) bool { return !now.Before(s.until) }

// Up resets the record after a success.
func (s *State) Up() { *s = State{} }

// Down records a failure at now: the endpoint sits out base after its
// first consecutive failure, doubling per further failure up to max.
func (s *State) Down(now time.Time, base, max time.Duration) {
	// The count only feeds the (capped) exponent; an endpoint down for
	// weeks must not grow it without bound.
	if s.fails <= maxShift {
		s.fails++
	}
	s.until = now.Add(Backoff(s.fails-1, base, max))
}

// Fails returns the consecutive-failure count (saturating).
func (s *State) Fails() int { return s.fails }

// Left returns the cooldown remaining at now (0 when healthy).
func (s *State) Left(now time.Time) time.Duration {
	if s.Healthy(now) {
		return 0
	}
	return s.until.Sub(now)
}
