package simtest

import (
	"fmt"
	"strings"
	"testing"

	"arcsim/internal/sched"
)

// jobs builds n jobs with the given cost, ids starting at base.
func jobs(base int64, n int, cost float64, pri int) []Job {
	out := make([]Job, n)
	for i := range out {
		out[i] = Job{ID: base + int64(i), Cost: cost, Priority: pri}
	}
	return out
}

func cat(lists ...[]Job) []Job {
	var out []Job
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// assertExactlyOnce fails unless every job completed exactly once and
// none were permanently failed.
func assertExactlyOnce(t *testing.T, r *Result) {
	t.Helper()
	if len(r.Failed) != 0 {
		t.Errorf("jobs permanently failed: %v", r.Failed)
	}
	for id, n := range r.Completions {
		if n != 1 {
			t.Errorf("job %d completed %d times, want exactly 1", id, n)
		}
	}
}

func assertNoIdle(t *testing.T, r *Result) {
	t.Helper()
	if len(r.IdleViolations) != 0 {
		t.Errorf("work-conservation violated %d times; first: %s",
			len(r.IdleViolations), r.IdleViolations[0])
	}
}

// TestScenarios is the deterministic scheduler-simulation suite: each
// scenario scripts a fleet and a job mix, runs the cost-model policy on
// the virtual clock, and asserts the makespan lands within a stated
// bound of the LPT lower bound — plus exactly-once delivery and work
// conservation throughout.
func TestScenarios(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// bound is the allowed makespan as a multiple of LowerBound.
		bound float64
		// minSteals/minPreempts assert the mechanism under test actually
		// engaged (scenarios are engineered so it must).
		minSteals   int
		minPreempts int
		check       func(t *testing.T, r *Result)
	}{
		{
			// A 4-worker daemon next to a 1-worker one, with a job mix
			// spanning two orders of magnitude: LPT onto the least-loaded
			// endpoint must land near the bound; round-robin would drown
			// the slow daemon (the SCHED experiment quantifies that).
			name: "heterogeneous-mix",
			cfg: Config{
				Endpoints: []Endpoint{
					{Name: "fast", Slots: 4},
					{Name: "slow", Slots: 1},
				},
				Jobs: cat(jobs(1, 2, 100, 0), jobs(10, 6, 30, 0), jobs(20, 24, 3, 0)),
			},
			bound: 1.35,
		},
		{
			// Two equal daemons; one dies mid-job. Its in-flight work
			// faults, requeues, and completes on the survivor — exactly
			// once. The bound is against the survivor-only lower bound
			// (LowerBound excludes dying endpoints) plus the work lost at
			// the crash.
			name: "endpoint-death-mid-job",
			cfg: Config{
				Endpoints: []Endpoint{
					{Name: "a", Slots: 2},
					{Name: "b", Slots: 2, DieAt: 12},
				},
				Jobs: cat(jobs(1, 8, 10, 0), jobs(100, 8, 5, 0)),
			},
			bound: 1.5,
			check: func(t *testing.T, r *Result) {
				if n := len(r.ByEndpoint["b"]); n == 0 {
					t.Errorf("scenario vacuous: b completed nothing before dying")
				}
				for _, id := range r.ByEndpoint["b"] {
					if r.FinishAt[id] > 12 {
						t.Errorf("job %d finished on b at t=%.1f, after its death at t=12", id, r.FinishAt[id])
					}
				}
			},
		},
		{
			// A straggler the cost model did not predict: both endpoints
			// look equally loaded, but one job secretly takes 6x its
			// predicted cost (Units >> Cost), pinning its endpoint. The
			// drained endpoint must steal the straggler's queued work back
			// instead of idling behind the mis-prediction.
			name: "slow-straggler-steal",
			cfg: Config{
				Endpoints: []Endpoint{
					{Name: "a", Slots: 1},
					{Name: "b", Slots: 1},
				},
				Jobs: []Job{
					{ID: 1, Cost: 10, Units: 60}, // the straggler: predicted 10, really 60
					{ID: 2, Cost: 10},
					{ID: 3, Cost: 9},
					{ID: 4, Cost: 9},
					{ID: 5, Cost: 8},
					{ID: 6, Cost: 8},
				},
				// Pipeline depth 2 queues enough behind the straggler to
				// make stealing the only way out.
				Opts: sched.Options{PipelineDepth: 2},
			},
			// LB is (60+44)/2 = 52 with perfect rebalancing; the straggler
			// alone pins its endpoint to t=60 while the healthy endpoint
			// clears everything else.
			bound:     1.2,
			minSteals: 1,
		},
		{
			// Low-priority long jobs saturate the fleet; a high-priority
			// batch arrives mid-run and must preempt rather than wait out
			// hour-long residencies. Victims requeue and still complete
			// exactly once.
			name: "priority-batch-preemption",
			cfg: Config{
				Endpoints: []Endpoint{
					{Name: "a", Slots: 1},
					{Name: "b", Slots: 1},
				},
				Jobs: cat(
					jobs(1, 4, 50, 0), // background: 200 cost units on 2 slots
					[]Job{
						{ID: 100, Cost: 5, Priority: 10, SubmitAt: 10},
						{ID: 101, Cost: 5, Priority: 10, SubmitAt: 10},
					},
				),
			},
			bound:       1.6, // preemption discards partial work; LB ignores that
			minPreempts: 1,
			check: func(t *testing.T, r *Result) {
				for _, id := range []int64{100, 101} {
					// The batch lands at t=10 onto endpoints otherwise busy
					// until t=50+; preemption must get both done long before
					// any background job's natural completion.
					if r.FinishAt[id] > 30 {
						t.Errorf("high-priority job %d finished at t=%.1f, preemption did not engage", id, r.FinishAt[id])
					}
				}
			},
		},
		{
			// The tiered fleet's bread and butter: a handful of dominant
			// may-conflict cycle-accurate jobs among dozens of proven-DRF
			// short-circuit jobs that cost ~nothing. LPT must keep the big
			// jobs spread and never let the confetti delay them.
			name: "proven-drf-confetti",
			cfg: Config{
				Endpoints: []Endpoint{
					{Name: "fast", Slots: 4},
					{Name: "slow", Slots: 2},
				},
				Jobs: cat(jobs(1, 6, 120, 0), jobs(100, 40, 1, 0)),
			},
			bound: 1.35,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Run(tc.cfg)
			lb := LowerBound(tc.cfg)
			if r.Makespan > tc.bound*lb {
				t.Errorf("makespan %.2f exceeds %.2fx lower bound %.2f (%.2fx)\nlog:\n%s",
					r.Makespan, tc.bound, lb, r.Makespan/lb, strings.Join(r.Log, "\n"))
			}
			assertExactlyOnce(t, r)
			assertNoIdle(t, r)
			if r.Steals < tc.minSteals {
				t.Errorf("steals = %d, want >= %d", r.Steals, tc.minSteals)
			}
			if r.Preempts < tc.minPreempts {
				t.Errorf("preempts = %d, want >= %d", r.Preempts, tc.minPreempts)
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}

// TestDeterminism runs one nontrivial scenario repeatedly and demands an
// identical event log every time: the harness and the Core together must
// be a pure function of the scripted inputs.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Endpoints: []Endpoint{
			{Name: "fast", Slots: 4},
			{Name: "slow", Slots: 1},
			{Name: "mid", Slots: 2, DieAt: 9},
		},
		Jobs: cat(jobs(1, 3, 40, 0), jobs(10, 10, 7, 0), jobs(50, 20, 1, 0),
			[]Job{{ID: 99, Cost: 4, Priority: 5, SubmitAt: 3}}),
	}
	base := Run(cfg)
	for i := 0; i < 5; i++ {
		r := Run(cfg)
		if len(r.Log) != len(base.Log) {
			t.Fatalf("run %d produced %d events, first run %d", i, len(r.Log), len(base.Log))
		}
		for k := range r.Log {
			if r.Log[k] != base.Log[k] {
				t.Fatalf("run %d diverged at event %d:\n  %s\nvs\n  %s", i, k, r.Log[k], base.Log[k])
			}
		}
		if r.Makespan != base.Makespan {
			t.Fatalf("run %d makespan %v != %v", i, r.Makespan, base.Makespan)
		}
	}
}

// TestRoundRobinBaseline pins the degraded policy's behavior: with
// ForceRoundRobin and no backpressure (blind round-robin), the
// heterogeneous mix lands far from the lower bound — the gap the
// cost-model scheduler exists to close, and the SCHED experiment's
// headline comparison.
func TestRoundRobinBaseline(t *testing.T) {
	mk := func(force bool) Config {
		return Config{
			Endpoints: []Endpoint{
				{Name: "fast", Slots: 4},
				{Name: "slow", Slots: 1},
			},
			Jobs:      cat(jobs(1, 2, 100, 0), jobs(10, 6, 30, 0), jobs(20, 24, 3, 0)),
			Opts:      sched.Options{ForceRoundRobin: force},
			Unbounded: force,
		}
	}
	rr := Run(mk(true))
	lpt := Run(mk(false))
	assertExactlyOnce(t, rr)
	assertExactlyOnce(t, lpt)
	if ratio := rr.Makespan / lpt.Makespan; ratio < 1.5 {
		t.Errorf("round-robin/cost-model makespan ratio %.2f, want >= 1.5 (rr=%.1f lpt=%.1f)",
			ratio, rr.Makespan, lpt.Makespan)
	}
}

// TestStaleProbesDegrade scripts a fleet whose probes never report:
// the Core must degrade to round-robin (never wedge) and still finish
// everything exactly once.
func TestStaleProbesDegrade(t *testing.T) {
	cfg := Config{
		Endpoints: []Endpoint{
			{Name: "a", Slots: 2},
			{Name: "b", Slots: 2},
		},
		Jobs:  jobs(1, 12, 5, 0),
		Stale: true,
	}
	r := Run(cfg)
	assertExactlyOnce(t, r)
	// With DefaultSlots=1 assumed (no samples), both endpoints still get
	// work round-robin; the makespan is bounded even if not optimal.
	if r.Makespan <= 0 {
		t.Fatalf("nothing ran")
	}
	for _, name := range []string{"a", "b"} {
		if len(r.ByEndpoint[name]) == 0 {
			t.Errorf("endpoint %s got no work under round-robin degradation (%v)", name,
				fmt.Sprint(r.ByEndpoint))
		}
	}
}
