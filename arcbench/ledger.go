package main

import (
	"fmt"
	"sync"
	"time"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/static"
	"arcsim/internal/static/witness"
	"arcsim/internal/store"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// runSpec is one simulation a workload performs: the coordinates a
// daemon job or a bench.RunSpec carries, plus the scale and seed of its
// trace.
type runSpec struct {
	Workload string
	Proto    string
	Cores    int
	Oracle   bool
	Seed     int64
	Scale    float64
}

func (s runSpec) String() string {
	o := ""
	if s.Oracle {
		o = "/oracle"
	}
	return fmt.Sprintf("%s/%s/%d%s@%g#%d", s.Workload, s.Proto, s.Cores, o, s.Scale, s.Seed)
}

type traceKey struct {
	wl    string
	cores int
	seed  int64
	scale float64
}

type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
	an   *static.Analysis
	err  error
}

// pairKey identifies a pool of machines. It holds the trace's seed and
// scale because bench.Runner pools per runner, and the daemon keeps one
// runner per (scale, seed) (server.runner): a job on a seed no earlier
// job used builds its machine afresh.
type pairKey struct {
	seed  int64
	scale float64
	proto string
	cores int
}

func (s runSpec) pairKey() pairKey { return pairKey{s.Seed, s.Scale, s.Proto, s.Cores} }

type pair struct {
	m *machine.Machine
	p machine.Protocol
}

// nullReps is how many null-protocol runs calibrate each trace.
const nullReps = 3

// runRecord is one re-enacted simulation and its calibration twin.
type runRecord struct {
	spec   runSpec
	res    *sim.Result
	run    time.Duration // the simulation as the workload runs it
	twin   time.Duration // oracle specs: the same run without the oracle
	events uint64
}

// ledger re-enacts a workload's simulations by calling each layer's
// public function directly under a span — trace generation, validation,
// static analysis, machine build or reset, the engine — the way
// bench.Runner composes them, then calibrates the engine alone (a null
// protocol) and the oracle (an unchecked twin) so the simulation time
// splits into engine, protocol and oracle layers. It re-enacts only the
// straight-line engine: a spec whose trace bench.Runner would simulate
// phase-parallel (sim.PlanPhases returns a plan) is counted in phased,
// and every traced run reports each as a failed check, because its
// layer split would no longer match the workload it stands for.
type ledger struct {
	tr *tracer

	mu      sync.Mutex
	traces  map[traceKey]*traceEntry
	pool    map[pairKey][]pair
	records []*runRecord
	phased  int
	// events per core count over every distinct trace, and over the
	// null-protocol runs (which cover each distinct trace once).
	genEvents  uint64
	nullEvents map[int]uint64
	nullTime   map[int]time.Duration
	witnesses  []*witness.Report
}

func newLedger(tr *tracer) *ledger {
	return &ledger{
		tr:         tr,
		traces:     make(map[traceKey]*traceEntry),
		pool:       make(map[pairKey][]pair),
		nullEvents: make(map[int]uint64),
		nullTime:   make(map[int]time.Duration),
	}
}

// trace returns the spec's trace and analysis, generating and
// analysing it under spans on first use (later users wait, as they
// do on bench.Runner's trace memo).
func (l *ledger) trace(s runSpec, job string, parent int64) (*traceEntry, error) {
	k := traceKey{s.Workload, s.Cores, s.Seed, s.Scale}
	l.mu.Lock()
	e := l.traces[k]
	if e == nil {
		e = &traceEntry{}
		l.traces[k] = e
	}
	l.mu.Unlock()
	e.once.Do(func() {
		spec, ok := workload.ByName(s.Workload)
		if !ok {
			e.err = fmt.Errorf("unknown workload %q", s.Workload)
			return
		}
		sp := l.tr.begin("workload.gen", job, parent)
		e.tr = spec.Build(workload.Params{Threads: s.Cores, Seed: s.Seed, Scale: s.Scale})
		sp.close()
		sp = l.tr.begin("static.analyze", job, parent)
		e.an, e.err = static.Analyze(e.tr)
		sp.close()
		l.mu.Lock()
		l.genEvents += uint64(e.tr.Events())
		l.mu.Unlock()
	})
	return e, e.err
}

// acquire returns a pooled machine for s reset under a span of t, or
// builds one; a nil t records nothing (calibration runs).
func (l *ledger) acquire(t *tracer, s runSpec, job string, parent int64) (pair, error) {
	k := s.pairKey()
	l.mu.Lock()
	if s := l.pool[k]; len(s) > 0 {
		p := s[len(s)-1]
		l.pool[k] = s[:len(s)-1]
		l.mu.Unlock()
		sp := t.begin("machine.reset", job, parent)
		p.m.Reset()
		p.p.(interface{ Reset() }).Reset()
		sp.close()
		return p, nil
	}
	l.mu.Unlock()
	sp := t.begin("machine.build", job, parent)
	m, p, err := protocols.Build(s.Proto, machine.Default(s.Cores))
	sp.close()
	return pair{m, p}, err
}

func (l *ledger) release(s runSpec, p pair) {
	l.mu.Lock()
	k := s.pairKey()
	l.pool[k] = append(l.pool[k], p)
	l.mu.Unlock()
}

// admit re-enacts the daemon's admission of every submitted job:
// normalizeSpec validates each spec by building its machine and
// dropping it, so each job costs one machine.build before it queues.
func (l *ledger) admit(jobs []runSpec, workers int) error {
	return forEach(len(jobs), workers, func(i int) error {
		sp := l.tr.begin("machine.build", jobs[i].String(), 0)
		_, _, err := protocols.Build(jobs[i].Proto, machine.Default(jobs[i].Cores))
		sp.close()
		return err
	})
}

// reenact runs specs on workers goroutines, one root span per spec,
// and returns the wall time.
func (l *ledger) reenact(specs []runSpec, workers int) (time.Duration, error) {
	start := time.Now()
	err := forEach(len(specs), workers, func(i int) error {
		s := specs[i]
		job := s.String()
		root := l.tr.begin("job", job, 0)
		defer root.close()
		te, err := l.trace(s, job, root.id())
		if err != nil {
			return err
		}
		sp := l.tr.begin("sim.plan", job, root.id())
		plan := sim.PlanPhases(te.an, te.tr, machine.Default(s.Cores))
		sp.close()
		if plan != nil {
			logf("ledger: %s would simulate phase-parallel; the ledger re-enacts only the straight-line engine", job)
			l.mu.Lock()
			l.phased++
			l.mu.Unlock()
		}
		p, err := l.acquire(l.tr, s, job, root.id())
		if err != nil {
			return err
		}
		sp = l.tr.begin("sim.run", job, root.id())
		res, err := sim.Run(p.m, p.p, te.tr, sim.Options{CheckWithOracle: s.Oracle})
		d := sp.close()
		l.release(s, p)
		if err != nil {
			return fmt.Errorf("%s: %w", job, err)
		}
		l.mu.Lock()
		l.records = append(l.records, &runRecord{spec: s, res: res, run: d, events: res.Events})
		l.mu.Unlock()
		return nil
	})
	return time.Since(start), err
}

// calibrate times, outside the re-enacted wall time: trace validation
// once per distinct trace and, with withEngine, the null-protocol
// engine nullReps times per distinct trace, an unchecked twin of every
// oracle run, and (withWitness) a witness examination of every racy
// trace.
func (l *ledger) calibrate(workers int, withEngine, withWitness bool) error {
	type item struct {
		k  traceKey
		te *traceEntry
	}
	var items []item
	l.mu.Lock()
	for k, te := range l.traces {
		items = append(items, item{k, te})
	}
	recs := append([]*runRecord(nil), l.records...)
	l.mu.Unlock()
	machines := make(chan map[int]*machine.Machine, workers)
	for i := 0; i < workers; i++ {
		machines <- make(map[int]*machine.Machine)
	}
	err := forEach(len(items), workers, func(i int) error {
		it := items[i]
		ms := <-machines
		defer func() { machines <- ms }()
		sp := l.tr.begin("trace.validate", it.k.wl, 0)
		err := it.te.tr.Validate()
		sp.close()
		if err != nil || !withEngine {
			return err
		}
		m := ms[it.k.cores]
		if m == nil {
			m = machine.New(machine.Default(it.k.cores))
			ms[it.k.cores] = m
		}
		// The median of a few null runs: one is short enough for a
		// scheduling hiccup to dominate it.
		var ds []time.Duration
		var events uint64
		for rep := 0; rep < nullReps; rep++ {
			m.Reset()
			sp := l.tr.begin(fmt.Sprintf("sim.engine.c%d", it.k.cores), it.k.wl, 0)
			res, err := sim.Run(m, nullProtocol{}, it.te.tr, sim.Options{})
			ds = append(ds, sp.close())
			if err != nil {
				return fmt.Errorf("null engine on %s: %w", it.k.wl, err)
			}
			events = res.Events
		}
		l.mu.Lock()
		l.nullTime[it.k.cores] += medianDuration(ds)
		l.nullEvents[it.k.cores] += events
		l.mu.Unlock()
		if withWitness && !it.te.an.ProvenDRF() {
			sp := l.tr.begin("witness.examine", it.k.wl, 0)
			rep, err := witness.Examine(it.te.tr, it.te.an, witness.Options{})
			sp.close()
			if err != nil {
				return fmt.Errorf("witness on %s: %w", it.k.wl, err)
			}
			l.mu.Lock()
			l.witnesses = append(l.witnesses, rep)
			l.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return forEach(len(recs), workers, func(i int) error {
		r := recs[i]
		if !r.spec.Oracle {
			return nil
		}
		te, err := l.trace(r.spec, "", 0)
		if err != nil {
			return err
		}
		p, err := l.acquire(nil, r.spec, "", 0)
		if err != nil {
			return err
		}
		sp := l.tr.begin("sim.twin", r.spec.String(), 0)
		_, err = sim.Run(p.m, p.p, te.tr, sim.Options{})
		r.twin = sp.close()
		l.release(r.spec, p)
		return err
	})
}

// storeRoundTrip times store.Put and store.Get of every result through
// a scratch store in dir.
func (l *ledger) storeRoundTrip(dir string, results []*sim.Result) error {
	st, _, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	for i, res := range results {
		key := fmt.Sprintf("ledger/%d", i)
		sp := l.tr.begin("store.put", key, 0)
		err := st.Put(key, res)
		sp.close()
		if err != nil {
			return err
		}
		sp = l.tr.begin("store.get", key, 0)
		_, ok := st.Get(key)
		sp.close()
		if !ok {
			return fmt.Errorf("store lost %s", key)
		}
	}
	return nil
}

// nsPer divides a duration by a count in nanoseconds; 0 when n is 0.
func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// protoMetric names a design in metric names ("ce+" → "ceplus").
func protoMetric(p string) string {
	if p == protocols.CEPlus {
		return "ceplus"
	}
	return p
}

// layerMetrics reports the per-layer metrics the ledger measured, and
// the self time of each layer over the re-enacted jobs (the simulation
// split into validation, engine, protocol and oracle by calibration).
func (l *ledger) layerMetrics() (map[string]metric, map[string]time.Duration) {
	m := make(map[string]metric)
	validate := nsPer(l.tr.total("trace.validate"), l.genEvents)
	m["workload.gen_ns_per_event"] = metric{nsPer(l.tr.total("workload.gen"), l.genEvents), "ns/event"}
	m["trace.validate_ns_per_event"] = metric{validate, "ns/event"}
	m["static.analyze_ns_per_event"] = metric{nsPer(l.tr.total("static.analyze"), l.genEvents), "ns/event"}
	builds, resets := l.tr.durations("machine.build"), l.tr.durations("machine.reset")
	m["machine.build_ms"] = metric{meanMS(builds), "ms"}
	m["machine.builds"] = metric{float64(len(builds)), "count"}
	m["machine.reset_ms"] = metric{meanMS(resets), "ms"}
	m["machine.resets"] = metric{float64(len(resets)), "count"}
	engine := map[int]float64{}
	for c := range l.nullTime {
		engine[c] = nsPer(l.nullTime[c], l.nullEvents[c])
	}
	for _, c := range []int{8, 64} {
		m[fmt.Sprintf("sim.engine_ns_per_event.c%d", c)] = metric{engine[c], "ns/event"}
	}

	// Split every re-enacted simulation: validation and engine dispatch
	// at the calibrated per-event rates, the oracle as the checked run
	// minus its unchecked twin, and the protocol as the rest.
	protoTime := map[string]time.Duration{}
	protoEvents := map[string]uint64{}
	var oracleTime, inRunValidate, engineTime, allProtoTime time.Duration
	var oracleEvents uint64
	for _, r := range l.records {
		unchecked := r.run
		if r.spec.Oracle {
			unchecked = r.twin
			oracleTime += r.run - r.twin
			oracleEvents += r.events
		}
		eng := time.Duration(float64(r.events) * engine[r.spec.Cores])
		val := time.Duration(float64(r.events) * validate)
		protoTime[r.spec.Proto] += unchecked - eng
		protoEvents[r.spec.Proto] += r.events
		allProtoTime += unchecked - eng
		inRunValidate += val
		engineTime += eng - val
	}
	for _, p := range protocols.Names() {
		m["protocols."+protoMetric(p)+".ns_per_event"] = metric{nsPer(protoTime[p], protoEvents[p]), "ns/event"}
	}
	m["core.oracle_ns_per_event"] = metric{nsPer(oracleTime, oracleEvents), "ns/event"}
	exams := l.tr.durations("witness.examine")
	replays := 0
	for _, w := range l.witnesses {
		replays += w.Replays
	}
	m["witness.examine_ms"] = metric{meanMS(exams), "ms"}
	m["witness.replays"] = metric{float64(replays), "count"}
	m["store.put_ms"] = metric{meanMS(l.tr.durations("store.put")), "ms"}
	m["store.get_ms"] = metric{meanMS(l.tr.durations("store.get")), "ms"}

	// Spec.Build validates the trace it generates, and every sim.Run
	// validates it again: both count as validation, not generation.
	self := l.tr.selfTimes()
	genValidate := time.Duration(float64(l.genEvents) * validate)
	layers := map[string]time.Duration{
		"workload.gen":   self["workload.gen"] - genValidate,
		"trace.validate": genValidate + inRunValidate,
		"static.analyze": self["static.analyze"],
		"machine.build":  self["machine.build"],
		"machine.reset":  self["machine.reset"],
		"sim.engine":     engineTime,
		"protocols":      allProtoTime,
		"core.oracle":    oracleTime,
		"bench.other":    self["job"] + self["sim.plan"],
	}
	return m, layers
}

// simCounts sums the simulated statistics of results. They are
// simulated, not host, quantities: a change that only speeds the
// simulator up must leave every one of them unchanged.
func simCounts(results []*sim.Result) map[string]metric {
	var c [8]uint64
	for _, r := range results {
		c[0] += r.Cycles
		c[1] += r.L1.Misses
		c[2] += r.LLC.Misses
		c[3] += r.AIM.Misses
		c[4] += r.NoC.Flits
		c[5] += r.NoC.QueueCycles
		c[6] += r.DRAM.Reads
		c[7] += r.DRAM.Writes
	}
	names := []string{"sim.cycles", "cache.l1_misses", "cache.llc_misses", "aim.misses",
		"noc.flits", "noc.queue_cycles", "dram.reads", "dram.writes"}
	m := make(map[string]metric, len(names))
	for i, n := range names {
		m[n] = metric{float64(c[i]), "count"}
	}
	return m
}

// forEach calls f(0..n-1) on up to workers goroutines and returns the
// first error.
func forEach(n, workers int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
