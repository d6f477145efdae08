package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/client"
	"arcsim/internal/protocols"
	"arcsim/internal/server"
	"arcsim/internal/sim"
	"arcsim/internal/store"
	"arcsim/internal/workload"
)

// The service workload: nproc closed-loop clients, each doing Submit →
// Follow → Result against one in-process daemon (on-disk store, tier
// and witness on), as arcsimctl -wait and -remote sweeps do. Set-up
// fills the store with the fixed-seed results, as a daemon that served
// them before holds them. Per-job fixed costs dominate: HTTP and SSE,
// queueing, admission builds, runner creation, trace generation,
// static analysis, witness examination of racy traces, and store reads;
// the fresh-seed jobs also build machines, simulate and write the store
// with its fsyncs.
const (
	serviceScale = 0.05
	// A run is rounds of the same 858 jobs, each round on a fresh
	// daemon over the pre-filled store; serviceRoundsPerSecond is rounds
	// per second on a 2-vCPU host. Runs are never under 5 rounds (4290
	// jobs), so at least ten samples lie beyond the pooled p99.
	serviceRoundsPerSecond = 0.38
	serviceMinRounds       = 5
	// One job in freshEvery uses a seed no job has used before, as R1
	// seed sweeps do. The daemon builds and keeps a bench.Runner (machine
	// pool included) per distinct seed, so these jobs are what
	// heap_live_mb measures.
	freshEvery = 20
	// sampleMod selects about one distinct spec in sampleMod whose every
	// result is checked byte for byte against a local simulation.
	sampleMod = 8
)

var (
	serviceCores = []int{8, 16}
	// serviceSeeds is the fixed seed set repeats draw from.
	serviceSeeds = []int64{1, 2}
)

// serviceJobs is round r's job mix. Every round holds the same jobs in
// a seeded order: each (workload, design, cores, seed) of catalog × 4
// designs × cores {8, 16} × the fixed seeds three times — twice plain,
// once plain, conflicts-only or oracle-checked (detecting designs) by
// turns, so each spec's first job in a round is a store read and most
// are memo hits — and after every freshEvery-1 of them one job on a
// never-repeated seed, which the store cannot hold. The fresh jobs cycle
// through workloads, designs and core counts from the same start in
// every round, so each round simulates the same fresh mix (the latency
// tail) and retains the same machines; only their seeds and places in
// the order change.
func serviceJobs(seed int64, r int) []server.JobSpec {
	rng := rand.New(rand.NewSource(seed*1_000 + int64(r)))
	cat := workload.Catalog()
	designs := protocols.Names()
	var base []server.JobSpec
	i := 0
	for _, w := range cat {
		for _, p := range designs {
			for _, c := range serviceCores {
				for _, sd := range serviceSeeds {
					j := server.JobSpec{Workload: w.Name, Protocol: p, Cores: c, Seed: sd, Scale: serviceScale}
					again := j
					switch i % 3 {
					case 1:
						again.ConflictsOnly = true
					case 2:
						again.Oracle = p != protocols.MESI
					}
					base = append(base, j, j, again)
					i++
				}
			}
		}
	}
	rng.Shuffle(len(base), func(a, b int) { base[a], base[b] = base[b], base[a] })
	jobs := make([]server.JobSpec, 0, len(base)+len(base)/(freshEvery-1))
	k := 0
	for n, j := range base {
		jobs = append(jobs, j)
		if (n+1)%(freshEvery-1) == 0 {
			jobs = append(jobs, server.JobSpec{
				Workload: cat[k%len(cat)].Name,
				Protocol: designs[k%len(designs)],
				Cores:    serviceCores[(k/len(designs))%len(serviceCores)],
				Seed:     1_000_000 + ((seed%1_000_000+1_000_000)%1_000_000*1_000+int64(r))*100 + int64(k),
				Scale:    serviceScale,
			})
			k++
		}
	}
	return jobs
}

// freshSeed reports whether a job's seed is outside the fixed set, so
// the pre-filled store does not hold its result.
func freshSeed(seed int64) bool {
	for _, s := range serviceSeeds {
		if s == seed {
			return false
		}
	}
	return true
}

// sampled reports whether spec's results are checked against a local
// simulation.
func sampled(spec server.JobSpec, seed int64) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%s/%d/%d/%v", spec.Workload, spec.Protocol, spec.Cores, spec.Seed, spec.Oracle)
	return int64(h.Sum32()%sampleMod) == (seed%sampleMod+sampleMod)%sampleMod
}

type service struct {
	d       *daemon
	clients []*client.Client
}

// stop stops the daemon; its store stays for the next round's daemon.
func (s *service) stop() { s.d.stop() }

// fillServiceStore fills the store in dir with every fixed-seed result
// of the job mix, simulated by a local runner per seed configured as
// the daemon configures its runners, so every round's daemon finds what
// a daemon that served those specs before would hold. The fresh-seed
// jobs are never in it.
func fillServiceStore(e env, dir string) error {
	st, _, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	runners := make(map[int64]*bench.Runner)
	for _, sd := range serviceSeeds {
		runners[sd] = bench.NewRunner(bench.Config{Scale: serviceScale, Seed: sd, Tier: true, Jobs: e.workers, Cache: st})
	}
	var specs []server.JobSpec
	seen := make(map[server.JobSpec]bool)
	for _, j := range serviceJobs(e.seed, 0) {
		j.ConflictsOnly = false
		if !freshSeed(j.Seed) && !seen[j] {
			seen[j] = true
			specs = append(specs, j)
		}
	}
	return forEach(len(specs), e.workers, func(i int) error {
		s := specs[i]
		_, err := runners[s.Seed].SpecResult(context.Background(), bench.RunSpec{Workload: s.Workload, Proto: s.Protocol, Cores: s.Cores, Oracle: s.Oracle})
		return err
	})
}

// startService starts a daemon over the store in dir and its clients.
func startService(e env, dir string) (*service, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, ln, server.Config{Workers: e.workers, Tier: true, Witness: true}, nil)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &service{d: d}
	for i := 0; i < e.workers; i++ {
		s.clients = append(s.clients, client.New(d.url, client.Options{}))
	}
	// Warm up as a client session starts: a health probe per client, then
	// one job per design and core count of the smallest racy workload on
	// the first fixed seed, so the round does not pay first-use costs
	// (connections, pools, heap growth, that seed's runner).
	for _, c := range s.clients {
		if _, err := c.Health(context.Background()); err != nil {
			s.stop()
			return nil, err
		}
	}
	for _, p := range protocols.Names() {
		for _, c := range serviceCores {
			spec := server.JobSpec{Workload: "racy-single", Protocol: p, Cores: c, Seed: serviceSeeds[0], Scale: serviceScale}
			if r := runJob(s.clients[0], spec); r.err != nil {
				s.stop()
				return nil, fmt.Errorf("warm-up: %w", r.err)
			}
		}
	}
	return s, nil
}

// jobResult is what one closed-loop job delivered.
type jobResult struct {
	view  server.JobView
	raw   []byte
	res   *sim.Result
	lat   time.Duration
	start time.Time
	err   error
}

// drive runs jobs through the service's clients, each client sending
// its next job only when the previous one's result has arrived.
func (s *service) drive(jobs []server.JobSpec) []jobResult {
	out := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = runJob(c, jobs[i])
			}
		}(c)
	}
	wg.Wait()
	return out
}

func runJob(c *client.Client, spec server.JobSpec) jobResult {
	ctx := context.Background()
	r := jobResult{start: time.Now()}
	view, err := c.Submit(ctx, spec)
	if err == nil {
		r.view, err = c.Follow(ctx, view.ID, nil)
	}
	if err == nil && r.view.State != server.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", r.view.ID, r.view.State, r.view.Error)
	}
	if err == nil {
		r.raw, err = c.ResultBytes(ctx, r.view.ID)
	}
	r.lat = time.Since(r.start)
	if err == nil {
		r.res = new(sim.Result)
		err = json.Unmarshal(r.raw, r.res)
	}
	r.err = err
	return r
}

// checkService counts wrong outputs: failed jobs, synthesized results
// where a conflict was possible, and sampled results that differ from a
// local straight-line simulation of the same spec.
func checkService(e env, jobs []server.JobSpec, out []jobResult) int {
	failed := 0
	want := make(map[server.JobSpec][]byte)
	var specs []server.JobSpec
	for i, r := range out {
		spec := jobs[i]
		switch {
		case r.err != nil:
			logf("service: %v", r.err)
			failed++
			continue
		case r.res.Synthesized:
			if ws, _ := workload.ByName(spec.Workload); ws.Racy || r.res.Conflicts != 0 || !spec.ConflictsOnly {
				logf("service: %s synthesized a result it may not", r.view.ID)
				failed++
			}
			continue
		}
		key := spec
		key.ConflictsOnly = false
		if _, ok := want[key]; !ok && sampled(key, e.seed) {
			want[key] = nil
			specs = append(specs, key)
		}
	}
	raws := make([][]byte, len(specs))
	err := forEach(len(specs), e.workers, func(i int) error {
		s := specs[i]
		r := bench.NewRunner(bench.Config{Scale: s.Scale, Seed: s.Seed, Jobs: 1})
		res, err := r.SpecResult(context.Background(), bench.RunSpec{Workload: s.Workload, Proto: s.Protocol, Cores: s.Cores, Oracle: s.Oracle})
		if err == nil {
			raws[i], err = json.Marshal(res)
		}
		return err
	})
	if err != nil {
		logf("service: local reference: %v", err)
		return failed + len(out)
	}
	for i, s := range specs {
		want[s] = raws[i]
	}
	checked := 0
	for i, r := range out {
		key := jobs[i]
		key.ConflictsOnly = false
		if w, ok := want[key]; ok && r.err == nil && !r.res.Synthesized {
			checked++
			if !bytes.Equal(w, r.raw) {
				logf("service: %s (%+v) differs from the local simulation", r.view.ID, key)
				failed++
			}
		}
	}
	logf("service: %d results of %d sampled specs matched byte for byte against local simulation", checked, len(specs))
	return failed
}

func runService(e env, traced bool) (*report, error) {
	rounds := units(e.seconds, serviceRoundsPerSecond, serviceMinRounds)
	dir, fillS, err := setupSeconds(e, 3, func() (string, error) {
		dir, err := os.MkdirTemp(e.work, "service-")
		if err == nil {
			err = fillServiceStore(e, dir)
		}
		if err != nil {
			return dir, fmt.Errorf("service pre-fill: %w", err)
		}
		return dir, nil
	}, func(dir string) { os.RemoveAll(dir) })
	defer os.RemoveAll(dir)
	if err != nil {
		return nil, err
	}
	if traced {
		return serviceLedger(e, dir, serviceJobs(e.seed, 0))
	}
	// Each round is one daemon lifetime over the same store: set up,
	// drive the round's jobs, measure the heap with the daemon still up,
	// stop it.
	rep := &report{}
	t := &timed{pooled: true}
	var setups []time.Duration
	for r := 0; r < rounds; r++ {
		jobs := serviceJobs(e.seed, r)
		t0 := time.Now()
		svc, err := startService(e, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		t.begin()
		out := svc.drive(jobs)
		var events uint64
		lat := make([]float64, len(out))
		for i, o := range out {
			lat[i] = ms(o.lat)
			if o.res != nil {
				events += o.res.Events
			}
		}
		t.end(len(jobs), events)
		t.heap()
		t.latency(lat)
		runtime.KeepAlive(svc)
		svc.stop()
		rep.Attempted += len(jobs)
		rep.Failed += checkService(e, jobs, out)
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics = t.endToEnd(fillS + medianDuration(setups).Seconds())
	t.log("service")
	return rep, nil
}

// serviceLedger drives one round's jobs on a fresh daemon over the
// pre-filled store in dir and builds its spans afterwards — a client
// span per job with the daemon's queue and run time as children — from
// timestamps the job path records untraced too (the client's latency,
// the JobView's Created, Started and Done). The traced round therefore is an untraced round: tracing adds
// no time to it, and bench.tracing_overhead_ms is 0 by construction.
// Then the ledger re-enacts the round's daemon work layer by layer: one
// admission build per job, the generation and analysis of every
// distinct trace, and every distinct spec the store did not hold.
func serviceLedger(e env, dir string, jobs []server.JobSpec) (*report, error) {
	svc, err := startService(e, dir)
	if err != nil {
		return nil, err
	}
	t := &timed{}
	t.begin()
	out := svc.drive(jobs)
	t.end(0, 0)
	wall := t.wall
	tr := newTracer()
	m := make(map[string]metric)
	var queue, run, overhead []float64
	var results []*sim.Result
	for _, r := range out {
		if r.err != nil {
			continue
		}
		results = append(results, r.res)
		v := r.view
		root := tr.add("client.job", v.ID, 0, r.start, r.start.Add(r.lat))
		tr.add("server.queue", v.ID, root, v.Created, v.Started)
		tr.add("server.run", v.ID, root, v.Started, v.Done)
		queue = append(queue, ms(v.Started.Sub(v.Created)))
		run = append(run, ms(v.Done.Sub(v.Started)))
		overhead = append(overhead, ms(r.lat-v.Done.Sub(v.Created)))
	}
	sims, err := svc.d.metricValue("arcsimd_sims_total")
	if err != nil {
		svc.stop()
		return nil, err
	}
	skips, err := svc.d.metricValue("arcsimd_tier_skips_total")
	if err != nil {
		svc.stop()
		return nil, err
	}
	m["server.queue_wait_ms.p50"] = metric{quantile(queue, 0.5), "ms"}
	m["server.queue_wait_ms.p99"] = metric{quantile(queue, 0.99), "ms"}
	m["server.run_ms.p50"] = metric{quantile(run, 0.5), "ms"}
	m["server.run_ms.p99"] = metric{quantile(run, 0.99), "ms"}
	m["client.overhead_ms.p50"] = metric{quantile(overhead, 0.5), "ms"}
	m["store.hits"] = metric{float64(svc.d.st.Hits()), "count"}
	m["store.misses"] = metric{float64(svc.d.st.Misses()), "count"}
	m["bench.sim_runs"] = metric{sims, "count"}
	m["bench.memo_hits"] = metric{max(0, float64(len(results))-sims-skips-float64(svc.d.st.Hits())), "count"}
	m["bench.worker_util"] = metric{sum(run) / 1e3 / (wall.Seconds() * float64(e.workers)), "ratio"}
	m["bench.tracing_overhead_ms"] = metric{0, "ms"}
	svc.stop()
	failed := checkService(e, jobs, out)

	l := newLedger(newTracer())
	var admitted, specs []runSpec
	seen := make(map[runSpec]bool)
	for _, j := range jobs {
		s := runSpec{Workload: j.Workload, Proto: j.Protocol, Cores: j.Cores, Oracle: j.Oracle, Seed: j.Seed, Scale: j.Scale}
		admitted = append(admitted, s)
		if seen[s] {
			continue
		}
		seen[s] = true
		if !freshSeed(j.Seed) {
			// A store hit: the daemon's tier still generates and analyses
			// the trace, but nothing is simulated.
			if _, err := l.trace(s, s.String(), 0); err != nil {
				return nil, err
			}
			continue
		}
		specs = append(specs, s)
	}
	if err := l.admit(admitted, e.workers); err != nil {
		return nil, err
	}
	if err := ledgerProbe(e, l, specs); err != nil {
		return nil, err
	}
	failed += l.phased
	lm, _ := l.layerMetrics()
	for k, v := range lm {
		m[k] = v
	}
	for k, v := range simCounts(results) {
		m[k] = v
	}
	self := tr.selfTimes()
	jobTime := tr.total("client.job")
	layers := map[string]time.Duration{
		"client.self":  self["client.job"],
		"server.queue": self["server.queue"],
		"server.run":   self["server.run"],
	}
	m["bench.ledger_residual"] = metric{residual(jobTime, wall, len(svc.clients)), "ratio"}
	addShares(m, layers, jobTime)
	printLedger("service", layers, jobTime, wall, e.workers)
	if err := writeSpans(e, tr, "service"); err != nil {
		return nil, err
	}
	return &report{Correct: failed == 0, Attempted: len(jobs), Failed: failed, Metrics: completeLayers(m)}, nil
}

// ledgerProbe re-enacts specs layer by layer, calibrates (with the
// witness examination of racy traces), and times a store round trip of
// every result.
func ledgerProbe(e env, l *ledger, specs []runSpec) error {
	if _, err := l.reenact(specs, e.workers); err != nil {
		return err
	}
	if err := l.calibrate(e.workers, true, true); err != nil {
		return err
	}
	var results []*sim.Result
	for _, r := range l.records {
		results = append(results, r.res)
	}
	return scratchRoundTrip(e, l, results)
}

// scratchRoundTrip times the store round trip of results through a
// store in a scratch directory.
func scratchRoundTrip(e env, l *ledger, results []*sim.Result) error {
	dir, err := os.MkdirTemp(e.work, "ledger-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return l.storeRoundTrip(dir, results)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
