package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/client"
	"arcsim/internal/mesh"
	"arcsim/internal/sched"
	"arcsim/internal/sched/fleet"
	"arcsim/internal/server"
	"arcsim/internal/sim"
	"arcsim/internal/static/witness"
	"arcsim/internal/store"
)

// The fleet workload: the two-daemon sweep path (cmd/experiments
// -remote -sched). Set-up fills a store with the sweep matrix. Each pass
// then starts, outside its timed segment, daemon A over that store and
// daemon B over an empty one — one worker each, their stores federated
// through the mesh with rendezvous Self set — and runs the matrix from
// a fresh bench.Runner whose Exec dispatches through sched/fleet. Every
// pass's jobs placed on A are store reads and those placed on B mesh
// read-throughs from A; no daemon has a memoized result yet and nothing
// is simulated, so an engine change should not move the timed region.
// Every run reads the results of the same traces, so runs compare equal
// work; the workload seed sets the order of each pass's jobs.
const (
	fleetScale     = 0.05
	fleetTraceSeed = 1
	// fleetPerSecond is matrix passes per second on a 2-vCPU host (one
	// pass is ~2.1 s); the run is never under 8 passes (1232 jobs), and
	// the traced run drives exactly that many.
	fleetPerSecond = 0.47
	fleetMinPasses = 8
)

type fleetSys struct {
	dir  string // A's store is dir/a; each pass's B gets a fresh dir/b-*
	seed int64  // orders each pass's jobs
	// want holds the canonical bytes of every matrix result as the
	// set-up simulated them locally.
	want map[bench.RunSpec][]byte
	// The current pass's daemons and scheduler; nil between passes.
	a, b *daemon
	sch  *fleet.Scheduler
}

// startFleet fills A's store and starts the first pass's daemons.
func startFleet(e env) (*fleetSys, error) {
	dir, err := os.MkdirTemp(e.work, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleetSys{dir: dir, seed: e.seed, want: make(map[bench.RunSpec][]byte)}
	if err := f.prefill(e.workers); err != nil {
		f.stop()
		return nil, fmt.Errorf("fleet pre-fill: %w", err)
	}
	if err := f.up(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// prefill simulates the matrix through a local runner over A's store.
func (f *fleetSys) prefill(workers int) error {
	dir := filepath.Join(f.dir, "a")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, _, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	r := bench.NewRunner(bench.Config{Scale: fleetScale, Seed: fleetTraceSeed, Tier: true, Jobs: workers, Cache: st})
	specs := sweepMatrix()
	raws := make([][]byte, len(specs))
	err = forEach(len(specs), workers, func(i int) error {
		res, err := r.SpecResult(context.Background(), specs[i])
		if err == nil {
			raws[i], err = json.Marshal(res)
		}
		return err
	})
	if err != nil {
		return err
	}
	for i, s := range specs {
		f.want[s] = raws[i]
	}
	return nil
}

// up starts a pass's daemons — A over the pre-filled store, B over an
// empty one, peered through the mesh — and a scheduler over both.
func (f *fleetSys) up() error {
	lnA, err := listen()
	if err != nil {
		return err
	}
	lnB, err := listen()
	if err != nil {
		lnA.Close()
		return err
	}
	bdir, err := os.MkdirTemp(f.dir, "b-")
	if err != nil {
		lnA.Close()
		lnB.Close()
		return err
	}
	cfg := server.Config{Workers: 1, Tier: true}
	if f.a, err = startDaemon(filepath.Join(f.dir, "a"), lnA, cfg, []string{lnB.Addr().String()}); err != nil {
		lnA.Close()
		lnB.Close()
		return err
	}
	if f.b, err = startDaemon(bdir, lnB, cfg, []string{lnA.Addr().String()}); err != nil {
		lnB.Close()
		f.down()
		return err
	}
	f.sch = fleet.New([]string{f.a.url, f.b.url}, fleet.Options{})
	f.sch.Start(context.Background())
	return nil
}

// down stops the pass's scheduler and daemons and deletes B's store;
// A's store stays for the next pass.
func (f *fleetSys) down() {
	if f.sch != nil {
		f.sch.Stop()
		f.sch = nil
	}
	if f.a != nil {
		f.a.stop()
		f.a = nil
	}
	if f.b != nil {
		f.b.stop()
		os.RemoveAll(f.b.dir)
		f.b = nil
	}
}

func (f *fleetSys) stop() {
	f.down()
	os.RemoveAll(f.dir)
}

// fleetRun is one Scheduler.Run: the fleet's unit of work.
type fleetRun struct {
	spec       client.JobSpec
	start, end time.Time
}

// pass runs the matrix once, in the order the workload seed gives pass
// k, from a fresh runner whose Exec dispatches through the scheduler —
// cmd/experiments' schedExec, pricing each run from the runner's
// memoized analysis and a store HEAD fan-out.
func (f *fleetSys) pass(workers, k int, runs *[]fleetRun, mu *sync.Mutex) ([]bench.RunSpec, []*sim.Result, error) {
	var runner *bench.Runner
	exec := func(ctx context.Context, spec bench.RunSpec) (*sim.Result, error) {
		in := sched.CostInputs{Cores: spec.Cores, Oracle: spec.Oracle}
		if an, err := runner.Analysis(spec.Workload, spec.Cores); err == nil {
			in.Events = an.Stats().Events
			in.ProvenDRF = an.ProvenDRF()
			if !in.ProvenDRF && witness.RefutedDRF(an) {
				in.WitnessRefined, in.RefutedDRF = true, true
			}
		}
		in.PeerCached = f.sch.PeerHolds(ctx, runner.Cfg().CacheKey(spec))
		job := client.JobSpec{Workload: spec.Workload, Protocol: spec.Proto, Cores: spec.Cores,
			Scale: fleetScale, Seed: runner.Cfg().Seed, Oracle: spec.Oracle}
		start := time.Now()
		res, err := f.sch.Run(ctx, job, sched.EstimateCost(in), 0)
		end := time.Now()
		mu.Lock()
		*runs = append(*runs, fleetRun{job, start, end})
		mu.Unlock()
		if errors.Is(err, client.ErrNoEndpoints) {
			return nil, fmt.Errorf("%w: %v", bench.ErrRemoteUnavailable, err)
		}
		return res, err
	}
	runner = bench.NewRunner(bench.Config{Scale: fleetScale, Seed: fleetTraceSeed, Tier: true, Jobs: workers, Exec: exec})
	specs := sweepMatrix()
	rand.New(rand.NewSource(f.seed*1_000+int64(k))).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	results := make([]*sim.Result, len(specs))
	err := forEach(len(specs), workers, func(i int) error {
		var err error
		results[i], err = runner.SpecResult(context.Background(), specs[i])
		return err
	})
	return specs, results, err
}

// check counts delivered results that are not byte-identical to the
// locally simulated result of the same spec.
func (f *fleetSys) check(specs []bench.RunSpec, results []*sim.Result) int {
	failed := 0
	for i, s := range specs {
		raw, err := json.Marshal(results[i])
		if results[i] == nil || err != nil || !bytes.Equal(raw, f.want[s]) {
			logf("fleet: %s/%s/%d oracle=%v differs from the local simulation", s.Workload, s.Proto, s.Cores, s.Oracle)
			failed++
		}
	}
	return failed
}

// drive runs passes, each on fresh daemons and timed as a segment of t,
// and returns every Scheduler.Run plus the count of jobs attempted and
// wrong. observe, when not nil, runs after each pass's segment while
// the pass's daemons are still up.
func (f *fleetSys) drive(e env, passes int, t *timed, observe func() error) (runs []fleetRun, attempted, failed int, err error) {
	var mu sync.Mutex
	for k := 0; k < passes; k++ {
		if f.a == nil {
			if err := f.up(); err != nil {
				return nil, 0, 0, err
			}
		}
		before := len(runs)
		t.begin()
		specs, results, err := f.pass(e.workers, k, &runs, &mu)
		var events uint64
		for _, r := range results {
			if r != nil {
				events += r.Events
			}
		}
		t.end(len(specs), events)
		if err != nil {
			return nil, 0, 0, err
		}
		t.heap()
		var lat []float64
		for _, r := range runs[before:] {
			lat = append(lat, ms(r.end.Sub(r.start)))
		}
		t.latency(lat)
		attempted += len(specs)
		failed += f.check(specs, results)
		if observe != nil {
			if err := observe(); err != nil {
				return nil, 0, 0, err
			}
		}
		f.down()
	}
	return runs, attempted, failed, nil
}

func runFleet(e env, traced bool) (*report, error) {
	passes := units(e.seconds, fleetPerSecond, fleetMinPasses)
	f, setupS, err := setupSeconds(e, 3, func() (*fleetSys, error) { return startFleet(e) }, (*fleetSys).stop)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if traced {
		return fleetLedger(e, f, fleetMinPasses)
	}
	t := &timed{}
	_, attempted, failed, err := f.drive(e, passes, t, nil)
	if err != nil {
		return nil, err
	}
	t.log("fleet")
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: t.endToEnd(setupS)}, nil
}

// fleetLedger drives the passes as runFleet does and builds the spans
// afterwards — a span per Scheduler.Run with the daemon's queue and run
// time as children — from timestamps the untraced path records too, so
// bench.tracing_overhead_ms is 0 by construction. After each pass, with
// its daemons still up, it collects their jobs and counters. Then, on a
// fresh pair of daemons, it probes the client path and mesh fetches, and
// the ledger re-enacts one pass's fleet-side layers that are not
// network: trace generation and analysis (the runner's Analysis per
// distinct trace), one admission build per job (the daemons'
// normalizeSpec) and a store round trip of the results. The fleet
// simulates nothing, so the engine, protocol and oracle layers read 0.
func fleetLedger(e env, f *fleetSys, passes int) (*report, error) {
	views := make(map[client.JobSpec][]server.JobView)
	perDaemon := make(map[string]int)
	var busy time.Duration
	var fetches, faults, hits, misses uint64
	var sims float64
	observe := func() error {
		for name, d := range map[string]*daemon{"A": f.a, "B": f.b} {
			vs, err := d.jobs()
			if err != nil {
				return err
			}
			for _, v := range vs {
				if v.State != server.StateDone {
					continue // stolen or preempted by the scheduler, run elsewhere
				}
				perDaemon[name]++
				views[v.Spec] = append(views[v.Spec], v)
				busy += v.Done.Sub(v.Started)
			}
			c := d.mesh.Counters()
			fetches += c.Fetches
			faults += c.Faults
			hits += d.st.Hits()
			misses += d.st.Misses()
			n, err := d.metricValue("arcsimd_sims_total")
			if err != nil {
				return err
			}
			sims += n
		}
		return nil
	}
	t := &timed{}
	runs, attempted, failed, err := f.drive(e, passes, t, observe)
	if err != nil {
		return nil, err
	}
	wall := t.wall

	tr := newTracer()
	m := make(map[string]metric)
	var dispatch []float64
	for i, r := range runs {
		root := tr.add("sched.run", fmt.Sprint(i), 0, r.start, r.end)
		for _, v := range views[r.spec] {
			if v.Created.Before(r.start) || v.Done.After(r.end) {
				continue
			}
			tr.add("server.queue", v.ID, root, v.Created, v.Started)
			tr.add("server.run", v.ID, root, v.Started, v.Done)
			dispatch = append(dispatch, ms(r.end.Sub(r.start)-v.Done.Sub(v.Created)))
			break
		}
	}
	total := float64(perDaemon["A"] + perDaemon["B"])
	m["sched.dispatch_ms.p50"] = metric{quantile(dispatch, 0.5), "ms"}
	m["sched.share.A"] = metric{float64(perDaemon["A"]) / total, "ratio"}
	m["sched.share.B"] = metric{float64(perDaemon["B"]) / total, "ratio"}
	m["mesh.fetches"] = metric{float64(fetches), "count"}
	m["mesh.faults"] = metric{float64(faults), "count"}
	m["store.hits"] = metric{float64(hits), "count"}
	m["store.misses"] = metric{float64(misses), "count"}
	m["bench.sim_runs"] = metric{sims, "count"}
	m["bench.memo_hits"] = metric{max(0, total-sims-float64(hits)-float64(fetches)), "count"}
	m["bench.worker_util"] = metric{busy.Seconds() / (wall.Seconds() * 2), "ratio"}
	m["bench.tracing_overhead_ms"] = metric{0, "ms"}

	// Client probe: Submit → Follow → Result of matrix jobs straight to a
	// fresh A (store reads there), minus the daemon's own time.
	if err := f.up(); err != nil {
		return nil, err
	}
	c := client.New(f.a.url, client.Options{})
	var overhead []float64
	var results []*sim.Result
	for _, s := range sweepMatrix() {
		r := runJob(c, client.JobSpec{Workload: s.Workload, Protocol: s.Proto, Cores: s.Cores, Scale: fleetScale, Seed: fleetTraceSeed, Oracle: s.Oracle})
		if r.err != nil {
			return nil, r.err
		}
		results = append(results, r.res)
		overhead = append(overhead, ms(r.lat-r.view.Done.Sub(r.view.Created)))
	}
	m["client.overhead_ms.p50"] = metric{quantile(overhead, 0.5), "ms"}

	// Mesh probe: a fresh store reads every matrix key from A.
	l := newLedger(newTracer())
	if err := meshProbe(e, f, l.tr); err != nil {
		return nil, err
	}
	m["mesh.fetch_ms"] = metric{meanMS(l.tr.durations("mesh.lookup")), "ms"}
	f.down()

	var specs []runSpec
	for _, s := range sweepMatrix() {
		specs = append(specs, runSpec{Workload: s.Workload, Proto: s.Proto, Cores: s.Cores, Oracle: s.Oracle, Seed: fleetTraceSeed, Scale: fleetScale})
	}
	err = forEach(len(specs), e.workers, func(i int) error {
		_, err := l.trace(specs[i], specs[i].String(), 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := l.admit(specs, e.workers); err != nil {
		return nil, err
	}
	if err := l.calibrate(e.workers, false, false); err != nil {
		return nil, err
	}
	if err := scratchRoundTrip(e, l, results); err != nil {
		return nil, err
	}
	lm, _ := l.layerMetrics()
	for k, v := range lm {
		m[k] = v
	}
	for k, v := range simCounts(results) {
		m[k] = v
	}
	self := tr.selfTimes()
	jobTime := tr.total("sched.run")
	layers := map[string]time.Duration{
		"sched.self":   self["sched.run"],
		"server.queue": self["server.queue"],
		"server.run":   self["server.run"],
	}
	m["bench.ledger_residual"] = metric{residual(jobTime, wall, e.workers), "ratio"}
	addShares(m, layers, jobTime)
	printLedger("fleet", layers, jobTime, wall, e.workers)
	if err := writeSpans(e, tr, "fleet"); err != nil {
		return nil, err
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: completeLayers(m)}, nil
}

// meshProbe times mesh.Lookup of every matrix key from a fresh,
// unplaced store peered with A.
func meshProbe(e env, f *fleetSys, tr *tracer) error {
	dir, err := os.MkdirTemp(e.work, "mesh-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	mp := mesh.New(mesh.Config{Peers: []string{f.a.url}, Store: st, Timeout: 2 * time.Second})
	cfg := bench.Config{Scale: fleetScale, Seed: fleetTraceSeed}
	for _, s := range sweepMatrix() {
		key := cfg.CacheKey(s)
		sp := tr.begin("mesh.lookup", key, 0)
		_, ok := mp.Lookup(key)
		sp.close()
		if !ok {
			return fmt.Errorf("mesh probe: %s not found", key)
		}
	}
	return nil
}
