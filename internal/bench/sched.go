package bench

import (
	"fmt"
	"sort"

	"arcsim/internal/sched"
	"arcsim/internal/sched/simtest"
	"arcsim/internal/stats"
	"arcsim/internal/workload"
)

// schedJob is one scheduled job in the SCHED experiment's scripted
// fleet: a real catalog workload whose predicted cost comes from the
// same static analysis the tiered Runner consults.
type schedJob struct {
	name          string
	events        int
	proven        bool
	conflictsOnly bool
	cost          float64
}

// schedMakespanBound is the multiple of the LPT lower bound the
// cost-model schedule must stay within on the scripted fleet (the same
// bound the simtest heterogeneous-mix scenario pins).
const schedMakespanBound = 1.35

// schedRRGap is the minimum round-robin/cost-model makespan ratio the
// experiment asserts: the headline gap the scheduler exists to close.
const schedRRGap = 1.5

// runSched executes the SCHED experiment: the cost-model scheduler
// against a blind round-robin baseline on a deterministic virtual
// fleet.
//
// The job mix is not synthetic: every DRF-suite workload is analyzed by
// the static tier (memoized, exactly what the tiered Runner and daemon
// consult), and each contributes two jobs — a cycle-accurate simulation
// priced by its event count, and a conflicts-only request that
// tier-short-circuits to ~nothing when the analysis proves DRF. That
// bimodal mix (heavy simulations next to ~free short-circuits) is the
// paper repo's actual fleet workload, and the reason longest-job-first
// beats blind round-robin on it.
//
// Both policies run in the simtest harness — virtual clock, scripted
// endpoints, zero wall-clock nondeterminism — so the comparison is
// byte-reproducible and the makespans are exact. The fleet is the CI
// smoke topology: one fast daemon (4 workers) and one slow daemon
// (1 worker). A third run kills the fast endpoint mid-schedule and
// checks the exactly-once guarantee survives failover.
func runSched(r *Runner) (*Output, error) {
	cores := r.cfg.Cores

	// Price the suite with the real analyzer.
	suite := workload.Suite()
	jobs := make([]schedJob, 0, 2*len(suite))
	for _, spec := range suite {
		an, err := r.Analysis(spec.Name, cores)
		if err != nil {
			return nil, fmt.Errorf("sched: analyzing %s: %w", spec.Name, err)
		}
		events, proven := an.Stats().Events, an.ProvenDRF()
		jobs = append(jobs,
			schedJob{
				name: spec.Name, events: events, proven: proven,
				cost: sched.EstimateCost(sched.CostInputs{Events: events, Cores: cores, ProvenDRF: proven}),
			},
			schedJob{
				name: spec.Name + "/conflicts-only", events: events, proven: proven, conflictsOnly: true,
				cost: sched.EstimateCost(sched.CostInputs{Events: events, Cores: cores, ProvenDRF: proven, ConflictsOnly: true}),
			},
		)
	}
	// Heaviest first in the table; job IDs are assigned in that order so
	// the virtual schedule is independent of catalog order.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].cost > jobs[j].cost })

	simJobs := make([]simtest.Job, len(jobs))
	for i, j := range jobs {
		simJobs[i] = simtest.Job{ID: int64(i + 1), Cost: j.cost}
	}

	mkConfig := func(force bool, fastDiesAt float64) simtest.Config {
		return simtest.Config{
			Endpoints: []simtest.Endpoint{
				{Name: "fast", Slots: 4, DieAt: fastDiesAt},
				{Name: "slow", Slots: 1},
			},
			Jobs: simJobs,
			Opts: sched.Options{ForceRoundRobin: force},
			// The baseline models blind round-robin honestly: endpoints
			// are picked at submit time with no backpressure.
			Unbounded: force,
		}
	}

	cm := simtest.Run(mkConfig(false, 0))
	rr := simtest.Run(mkConfig(true, 0))
	lb := simtest.LowerBound(mkConfig(false, 0))
	deathCfg := mkConfig(false, lb/2)
	// The dead endpoint never recovers, so its bench keeps expiring and
	// every re-dispatch to it burns a unit of the per-job fault budget;
	// over a schedule twice as long as the healthy one the default
	// budget (tuned for transient faults) runs out. A long-sweep
	// operator raises it, so the death scenario does too: the point
	// here is that the survivor absorbs everything exactly once.
	deathCfg.Opts.MaxAttempts = 1 << 20
	death := simtest.Run(deathCfg)

	exactlyOnce := func(res *simtest.Result, nJobs int) (bool, string) {
		failed := map[int64]bool{}
		for _, id := range res.Failed {
			if failed[id] {
				return false, fmt.Sprintf("job %d failed more than once", id)
			}
			failed[id] = true
		}
		for id := int64(1); id <= int64(nJobs); id++ {
			n := res.Completions[id]
			switch {
			case failed[id] && n != 0:
				return false, fmt.Sprintf("job %d both failed and completed %d times", id, n)
			case !failed[id] && n != 1:
				return false, fmt.Sprintf("job %d completed %d times, want 1", id, n)
			}
		}
		return true, fmt.Sprintf("%d jobs, every one delivered exactly once", nJobs)
	}

	// Render.
	t := stats.NewTable("SCHED: cost-model scheduling vs round-robin (virtual fleet: fast=4 slots, slow=1 slot)",
		"job", "events", "verdict", "tier", "predicted cost")
	for i, j := range jobs {
		verdict := "MayConflict"
		if j.proven {
			verdict = "ProvenDRF"
		}
		tier := "simulate"
		if j.proven && j.conflictsOnly {
			tier = "short-circuit"
		}
		t.AddRow(fmt.Sprintf("#%d %s", i+1, j.name), fmt.Sprintf("%d", j.events), verdict, tier,
			fmt.Sprintf("%.0f", j.cost))
	}

	s := stats.NewTable("Schedules (virtual time units)", "policy", "makespan", "vs LPT lower bound", "steals", "preempts")
	s.AddRow("cost-model (LJF, least-loaded)", fmt.Sprintf("%.1f", cm.Makespan),
		fmt.Sprintf("%.2fx", cm.Makespan/lb), fmt.Sprintf("%d", cm.Steals), fmt.Sprintf("%d", cm.Preempts))
	s.AddRow("round-robin (PR-4 Pool model)", fmt.Sprintf("%.1f", rr.Makespan),
		fmt.Sprintf("%.2fx", rr.Makespan/lb), fmt.Sprintf("%d", rr.Steals), fmt.Sprintf("%d", rr.Preempts))
	s.AddRow(fmt.Sprintf("cost-model, fast daemon dies at t=%.1f", lb/2), fmt.Sprintf("%.1f", death.Makespan),
		"n/a (capacity lost)", fmt.Sprintf("%d", death.Steals), fmt.Sprintf("%d", death.Preempts))

	body := t.Render() + "\n" + s.Render() +
		fmt.Sprintf("\nLPT lower bound %.1f; round-robin/cost-model makespan ratio %.2fx.\n", lb, rr.Makespan/cm.Makespan)

	cmOnce, cmDetail := exactlyOnce(cm, len(simJobs))
	deathOnce, deathDetail := exactlyOnce(death, len(simJobs))

	checks := []Check{
		{
			Desc: fmt.Sprintf("cost-model makespan within %.2fx of the LPT lower bound", schedMakespanBound),
			Pass: cm.Makespan <= schedMakespanBound*lb,
			Detail: fmt.Sprintf("makespan %.1f vs bound %.1f (%.2fx of LB %.1f)",
				cm.Makespan, schedMakespanBound*lb, cm.Makespan/lb, lb),
		},
		{
			Desc:   fmt.Sprintf("round-robin baseline at least %.1fx slower than the cost model", schedRRGap),
			Pass:   rr.Makespan/cm.Makespan >= schedRRGap,
			Detail: fmt.Sprintf("ratio %.2fx (rr %.1f / cm %.1f)", rr.Makespan/cm.Makespan, rr.Makespan, cm.Makespan),
		},
		{Desc: "exactly-once delivery under the cost model", Pass: cmOnce, Detail: cmDetail},
		{
			Desc:   "exactly-once delivery with the fast endpoint dying mid-schedule",
			Pass:   deathOnce && len(death.Failed) == 0,
			Detail: fmt.Sprintf("%s; %d permanently failed (survivor absorbs the failover)", deathDetail, len(death.Failed)),
		},
		{
			Desc:   "work conservation: no healthy endpoint idles while work is pending",
			Pass:   len(cm.IdleViolations)+len(rr.IdleViolations)+len(death.IdleViolations) == 0,
			Detail: fmt.Sprintf("%d violations across all three schedules", len(cm.IdleViolations)+len(rr.IdleViolations)+len(death.IdleViolations)),
		},
	}

	return &Output{
		ID:    "SCHED",
		Title: "Cost-model scheduling vs round-robin on the daemon fleet",
		Claim: "Tier-aware cost prediction (events x cores, short-circuit ~free) plus longest-job-first dispatch " +
			"closes the makespan gap blind round-robin leaves on heterogeneous fleets.",
		Body:   body,
		Checks: checks,
	}, nil
}
