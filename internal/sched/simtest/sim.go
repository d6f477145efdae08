// Package simtest is the deterministic scheduler-simulation harness: it
// drives a sched.Core against virtual endpoints with scripted service
// times, failures, and drains on a virtual clock — no real daemons, no
// goroutines, no time.Sleep. Every decision the scheduler makes is a
// pure function of the scripted event sequence, so tests assert exact
// makespans against LPT lower bounds instead of racing wall clocks, and
// the SCHED experiment's policy comparison is byte-reproducible.
//
// The harness mirrors the production fleet driver's contract with the
// Core one-to-one: Start directives occupy a virtual worker slot (or the
// endpoint's local queue beyond its slots), Cancel directives confirm
// back through Core.Canceled, endpoint death faults every job the
// endpoint held, exactly as a connection reset would in production.
package simtest

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"arcsim/internal/sched"
)

// Endpoint scripts one virtual daemon.
type Endpoint struct {
	Name string
	// Slots is the worker-pool size (jobs served concurrently).
	Slots int
	// Speed is cost units served per virtual time unit per slot
	// (default 1). Heterogeneous fleets mix speeds and slots.
	Speed float64
	// DieAt, when positive, kills the endpoint at that virtual time:
	// every job it holds faults (as a crashed daemon's connections
	// would) and it never recovers.
	DieAt float64
}

// Job scripts one unit of work.
type Job struct {
	// ID must be unique and positive.
	ID int64
	// Cost is the predicted cost handed to the scheduler.
	Cost float64
	// Units is the true service demand; 0 means Cost (a perfect
	// prediction). Setting Units != Cost scripts mis-estimation —
	// stragglers the cost model did not see coming.
	Units float64
	// Priority is the scheduler priority class.
	Priority int
	// SubmitAt is the virtual time the job arrives (0 = at start).
	SubmitAt float64
}

// Config is one simulation scenario.
type Config struct {
	Endpoints []Endpoint
	Jobs      []Job
	// Opts tunes the Core under test. Now and StaleAfter are managed by
	// the harness (virtual clock; samples never go stale unless Stale
	// below is set).
	Opts sched.Options
	// Unbounded removes per-endpoint capacity backpressure, modeling a
	// blind round-robin dispatcher that assigns every job at submit time
	// with no view of endpoint load. Pair with Opts.ForceRoundRobin for the
	// baseline policy the SCHED experiment compares against.
	Unbounded bool
	// Stale, when true, never feeds the Core any load samples, scripting
	// a fleet whose /metrics probes all fail (degraded mode).
	Stale bool
}

// Result is what one simulation run produced.
type Result struct {
	// Makespan is the virtual time the last job completed.
	Makespan float64
	// Completions counts how many times each job finished (exactly-once
	// means every value is 1).
	Completions map[int64]int
	// Failed lists jobs the scheduler permanently failed (fault budget).
	Failed []int64
	// ByEndpoint lists completed job IDs per endpoint, in completion
	// order.
	ByEndpoint map[string][]int64
	// FinishAt records each job's (last) completion time.
	FinishAt map[int64]float64
	// Steals and Preempts are the Core's counters at the end.
	Steals, Preempts int
	// IdleViolations lists moments a healthy endpoint had a free slot
	// while work sat pending — the work-conservation property that
	// longest-job-first must never violate.
	IdleViolations []string
	// Log is the full event trace (deterministic; tests compare runs).
	Log []string
}

// LowerBound is the LPT makespan lower bound for the scenario: total
// work over total service rate, and no job finishing faster than the
// fastest endpoint can serve it. Endpoints that die are excluded from
// the rate (conservative for scenarios where they fail early).
func LowerBound(cfg Config) float64 {
	var total, rate, fastest float64
	for _, e := range cfg.Endpoints {
		if e.DieAt > 0 {
			continue
		}
		sp := e.Speed
		if sp <= 0 {
			sp = 1
		}
		rate += float64(e.Slots) * sp
		if sp > fastest {
			fastest = sp
		}
	}
	var maxUnits float64
	for _, j := range cfg.Jobs {
		u := j.Units
		if u == 0 {
			u = j.Cost
		}
		total += u
		if u > maxUnits {
			maxUnits = u
		}
	}
	if rate <= 0 || fastest <= 0 {
		return math.Inf(1)
	}
	lb := total / rate
	if single := maxUnits / fastest; single > lb {
		lb = single
	}
	return lb
}

// event kinds, processed in (time, seq) order.
const (
	evSubmit = iota
	evFinish
	evDie
)

type event struct {
	t    float64
	seq  int
	kind int
	ep   *vep
	job  *Job
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// vep is one virtual endpoint's execution state.
type vep struct {
	spec    Endpoint
	dead    bool
	running map[int64]*event // job id -> its scheduled finish event
	queue   []*Job           // dispatched beyond slots, daemon-side order
}

func (v *vep) speed() float64 {
	if v.spec.Speed <= 0 {
		return 1
	}
	return v.spec.Speed
}

// sim is one run's mutable state.
type sim struct {
	cfg    Config
	core   *sched.Core
	now    float64
	seq    int
	events eventHeap
	veps   map[string]*vep
	jobs   map[int64]*Job
	res    *Result
}

// Run executes one scenario to completion and returns the result. It
// panics on harness-level contract violations (a directive for an
// unknown job) — those are simulator bugs, not scheduler decisions.
func Run(cfg Config) *Result {
	s := &sim{
		cfg:  cfg,
		veps: make(map[string]*vep, len(cfg.Endpoints)),
		jobs: make(map[int64]*Job, len(cfg.Jobs)),
		res: &Result{
			Completions: make(map[int64]int, len(cfg.Jobs)),
			ByEndpoint:  make(map[string][]int64, len(cfg.Endpoints)),
			FinishAt:    make(map[int64]float64, len(cfg.Jobs)),
		},
	}
	opts := cfg.Opts
	opts.Now = func() time.Time {
		return time.Unix(0, 0).Add(time.Duration(s.now * float64(time.Second)))
	}
	// Virtual probes never go stale mid-run unless the scenario scripts
	// a dead probe fleet.
	opts.StaleAfter = 1 << 50
	if cfg.Unbounded {
		opts.PipelineDepth = 1 << 30
	}
	names := make([]string, len(cfg.Endpoints))
	for i, e := range cfg.Endpoints {
		names[i] = e.Name
		s.veps[e.Name] = &vep{spec: e, running: make(map[int64]*event)}
	}
	s.core = sched.NewCore(names, opts)

	// Seed load samples (the fleet's first probe round) unless the
	// scenario scripts probe failure.
	if !cfg.Stale {
		for _, e := range cfg.Endpoints {
			s.handle(s.core.UpdateLoad(e.Name, sched.Load{Workers: e.Slots, Up: true}))
		}
	}
	for i := range cfg.Jobs {
		j := &cfg.Jobs[i]
		s.jobs[j.ID] = j
		s.res.Completions[j.ID] = 0
		s.push(&event{t: j.SubmitAt, kind: evSubmit, job: j})
	}
	for _, e := range cfg.Endpoints {
		if e.DieAt > 0 {
			s.push(&event{t: e.DieAt, kind: evDie, ep: s.veps[e.Name]})
		}
	}

	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(*event)
		if ev.t < s.now {
			panic(fmt.Sprintf("simtest: time went backwards: %v -> %v", s.now, ev.t))
		}
		s.now = ev.t
		switch ev.kind {
		case evSubmit:
			s.logf("t=%.3f submit #%d cost=%.1f pri=%d", s.now, ev.job.ID, ev.job.Cost, ev.job.Priority)
			s.handle(s.core.Submit(&sched.Job{
				ID:       ev.job.ID,
				Label:    fmt.Sprintf("job%d", ev.job.ID),
				Cost:     ev.job.Cost,
				Priority: ev.job.Priority,
			}))
		case evFinish:
			v := ev.ep
			if v.running[ev.job.ID] != ev {
				continue // canceled or superseded; stale finish
			}
			delete(v.running, ev.job.ID)
			s.res.Completions[ev.job.ID]++
			s.res.FinishAt[ev.job.ID] = s.now
			s.res.ByEndpoint[v.spec.Name] = append(s.res.ByEndpoint[v.spec.Name], ev.job.ID)
			if s.now > s.res.Makespan {
				s.res.Makespan = s.now
			}
			s.logf("t=%.3f finish #%d @%s", s.now, ev.job.ID, v.spec.Name)
			s.promote(v)
			s.handle(s.core.Done(v.spec.Name, ev.job.ID))
		case evDie:
			v := ev.ep
			v.dead = true
			s.logf("t=%.3f die @%s", s.now, v.spec.Name)
			// Every held job faults, exactly as each follower connection
			// would error in production. Collect ids deterministically.
			ids := make([]int64, 0, len(v.running)+len(v.queue))
			for id := range v.running {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, j := range v.queue {
				ids = append(ids, j.ID)
			}
			for id := range v.running {
				delete(v.running, id)
			}
			v.queue = nil
			for _, id := range ids {
				s.handle(s.core.Fault(v.spec.Name, id))
			}
		}
		s.checkConservation()
	}
	snap := s.core.Snapshot()
	s.res.Steals, s.res.Preempts = snap.Steals, snap.Preempts
	return s.res
}

// handle executes directives synchronously at the current virtual time,
// feeding any follow-up events back into the Core.
func (s *sim) handle(dirs []sched.Directive) {
	for _, d := range dirs {
		switch d.Kind {
		case sched.DirStart:
			s.start(d)
		case sched.DirCancel:
			s.cancel(d)
		case sched.DirFail:
			s.logf("t=%.3f fail #%d (budget)", s.now, d.Job.ID)
			s.res.Failed = append(s.res.Failed, d.Job.ID)
		}
	}
}

func (s *sim) start(d sched.Directive) {
	v := s.veps[d.Endpoint]
	job := s.jobs[d.Job.ID]
	if v == nil || job == nil {
		panic(fmt.Sprintf("simtest: start directive for unknown %s/#%d", d.Endpoint, d.Job.ID))
	}
	if v.dead {
		// A dead daemon refuses the submission; the driver reports an
		// endpoint fault, which benches it and requeues the job.
		s.logf("t=%.3f start #%d @%s -> dead, fault", s.now, d.Job.ID, d.Endpoint)
		s.handle(s.core.Fault(d.Endpoint, d.Job.ID))
		return
	}
	s.logf("t=%.3f start #%d @%s", s.now, d.Job.ID, d.Endpoint)
	if len(v.running) < v.spec.Slots {
		s.run(v, job)
	} else {
		v.queue = append(v.queue, job)
	}
}

// run occupies a worker slot: schedule the finish and tell the Core the
// job was observed running.
func (s *sim) run(v *vep, job *Job) {
	units := job.Units
	if units == 0 {
		units = job.Cost
	}
	fin := &event{t: s.now + units/v.speed(), kind: evFinish, ep: v, job: job}
	v.running[job.ID] = fin
	s.push(fin)
	s.core.Started(v.spec.Name, job.ID)
}

// promote moves the next daemon-side queued job into the freed slot.
func (s *sim) promote(v *vep) {
	if v.dead || len(v.queue) == 0 || len(v.running) >= v.spec.Slots {
		return
	}
	job := v.queue[0]
	v.queue = v.queue[1:]
	s.run(v, job)
}

func (s *sim) cancel(d sched.Directive) {
	v := s.veps[d.Endpoint]
	if v == nil {
		panic("simtest: cancel directive for unknown endpoint " + d.Endpoint)
	}
	// Daemon-side queued: remove before it ever runs.
	for i, j := range v.queue {
		if j.ID == d.Job.ID {
			v.queue = append(v.queue[:i], v.queue[i+1:]...)
			s.logf("t=%.3f cancel #%d @%s [%s] (queued)", s.now, d.Job.ID, d.Endpoint, d.Reason)
			s.handle(s.core.Canceled(d.Endpoint, d.Job.ID))
			return
		}
	}
	// Running: abort mid-flight, free the slot.
	if _, ok := v.running[d.Job.ID]; ok {
		// Deleting the map entry orphans the scheduled finish event; the
		// evFinish handler skips events no longer in the running map.
		delete(v.running, d.Job.ID)
		s.logf("t=%.3f cancel #%d @%s [%s] (running)", s.now, d.Job.ID, d.Endpoint, d.Reason)
		s.promote(v)
		s.handle(s.core.Canceled(d.Endpoint, d.Job.ID))
		return
	}
	// Already finished or never arrived: the cancel could not land.
	s.logf("t=%.3f cancel #%d @%s [%s] (missed)", s.now, d.Job.ID, d.Endpoint, d.Reason)
	s.handle(s.core.CancelFailed(d.Endpoint, d.Job.ID))
}

// checkConservation records an idle violation whenever work sits pending
// while a healthy endpoint has uncommitted capacity — the scheduler must
// be work-conserving at every quiescent point.
func (s *sim) checkConservation() {
	snap := s.core.Snapshot()
	if snap.Pending == 0 {
		return
	}
	for _, e := range snap.Endpoints {
		if !e.Healthy {
			continue
		}
		if e.Queued+e.Running+e.Stealing < e.Capacity {
			s.res.IdleViolations = append(s.res.IdleViolations,
				fmt.Sprintf("t=%.3f: %d pending while %s has %d/%d in flight",
					s.now, snap.Pending, e.Name, e.Queued+e.Running+e.Stealing, e.Capacity))
		}
	}
}

func (s *sim) push(ev *event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.events, ev)
}

func (s *sim) logf(format string, args ...any) {
	s.res.Log = append(s.res.Log, fmt.Sprintf(format, args...))
}
