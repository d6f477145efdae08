package cooldown

import (
	"testing"
	"time"
)

// TestState pins the cooldown state machine: the first failure cools
// for base, each further one doubles it, the cooldown saturates at max,
// the failure count stops growing past the shift cap (so a million
// consecutive failures land exactly on max, never an overflowed
// duration), and Up resets everything.
func TestState(t *testing.T) {
	const base, max = time.Second, 30 * time.Second
	now := time.Unix(1000, 0)
	cases := []struct {
		name      string
		downs     int
		up        bool // call Up after the failures
		wantCool  time.Duration
		wantFails int
	}{
		{name: "healthy zero value", downs: 0, wantCool: 0, wantFails: 0},
		{name: "first failure cools for base", downs: 1, wantCool: base, wantFails: 1},
		{name: "second failure doubles", downs: 2, wantCool: 2 * base, wantFails: 2},
		{name: "fifth failure", downs: 5, wantCool: 16 * base, wantFails: 5},
		{name: "saturates at max", downs: 6, wantCool: max, wantFails: 6},
		{name: "count capped at the shift width", downs: maxShift + 5, wantCool: max, wantFails: maxShift + 1},
		{name: "a million failures stay at max", downs: 1_000_000, wantCool: max, wantFails: maxShift + 1},
		{name: "up resets", downs: 7, up: true, wantCool: 0, wantFails: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s State
			for i := 0; i < tc.downs; i++ {
				s.Down(now, base, max)
			}
			if tc.up {
				s.Up()
			}
			if got := s.Left(now); got != tc.wantCool {
				t.Fatalf("cooldown %v, want %v", got, tc.wantCool)
			}
			if got := s.Fails(); got != tc.wantFails {
				t.Fatalf("fails %d, want %d", got, tc.wantFails)
			}
			if s.Healthy(now) != (tc.wantCool == 0) {
				t.Fatalf("Healthy(now) = %v with cooldown %v", s.Healthy(now), tc.wantCool)
			}
			if tc.wantCool > 0 && !s.Healthy(now.Add(tc.wantCool)) {
				t.Fatalf("still benched once the %v cooldown elapsed", tc.wantCool)
			}
		})
	}
}
