package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/workload"
)

// The sweep workload: the paper's evaluation matrix through one
// bench.Runner per pass — every catalog workload × every design × cores
// {8, 64}, plus golden-oracle runs of the detecting designs on the racy
// workloads — so its time goes to engine dispatch, protocol access and
// the oracle mirror, with machine builds pooled and traces memoized.
const (
	sweepScale = 0.15
	// sweepPerSecond is passes per second on a 2-vCPU host (one pass is
	// ~2.7 s); runs are whole rounds of len(simSeeds) passes, so a 30 s
	// run is 12 passes and 1848 jobs.
	sweepPerSecond = 1 / 2.7
	digestFile     = "digests.json"
)

var sweepCores = []int{8, 64}

// simSeeds are the trace seeds sweep passes draw from; the reference
// digests cover every one of them. Pass k of a run with workload seed s
// simulates simSeeds[(s+k) mod len].
var simSeeds = []int64{1, 2, 3, 4}

func simSeed(seed int64, k int) int64 {
	n := int64(len(simSeeds))
	return simSeeds[((seed+int64(k))%n+n)%n]
}

// sweepMatrix is one pass's run set.
func sweepMatrix() []bench.RunSpec {
	var specs []bench.RunSpec
	for _, c := range sweepCores {
		for _, w := range workload.Catalog() {
			for _, p := range protocols.Names() {
				specs = append(specs, bench.RunSpec{Workload: w.Name, Proto: p, Cores: c})
			}
			if w.Racy {
				for _, p := range protocols.Detecting() {
					specs = append(specs, bench.RunSpec{Workload: w.Name, Proto: p, Cores: c, Oracle: true})
				}
			}
		}
	}
	return specs
}

func digestKey(seed int64, s bench.RunSpec) string {
	return bench.Config{Scale: sweepScale, Seed: seed}.CacheKey(s)
}

// digest hashes every simulated statistic of a result: its canonical
// encoding, the bytes the store persists and the daemon serves.
func digest(res *sim.Result) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:12]), nil
}

func loadDigests(e env) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(e.dir, digestFile))
	if err != nil {
		return nil, err
	}
	var d map[string]string
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return d, nil
}

// sweepPass runs one pass of the matrix through a fresh runner on
// workers goroutines, recording each job's latency.
type sweepPass struct {
	seed    int64
	runner  *bench.Runner
	specs   []bench.RunSpec
	results []*sim.Result
	errs    []error
	lat     []float64
	wall    time.Duration
}

func runSweepPass(seed int64, workers int) *sweepPass {
	specs := sweepMatrix()
	p := &sweepPass{
		seed:    seed,
		runner:  bench.NewRunner(bench.Config{Scale: sweepScale, Seed: seed, Tier: true, Jobs: workers}),
		specs:   specs,
		results: make([]*sim.Result, len(specs)),
		errs:    make([]error, len(specs)),
		lat:     make([]float64, len(specs)),
	}
	start := time.Now()
	forEach(len(specs), workers, func(i int) error { //nolint:errcheck // errors are kept per job
		t0 := time.Now()
		p.results[i], p.errs[i] = p.runner.SpecResult(context.Background(), specs[i])
		p.lat[i] = ms(time.Since(t0))
		return nil
	})
	p.wall = time.Since(start)
	return p
}

// check counts the pass's wrong outputs: failed runs, oracle runs the
// golden detector did not confirm, and results whose digest differs
// from the reference.
func (p *sweepPass) check(ref map[string]string) int {
	failed := 0
	for i, s := range p.specs {
		res, err := p.results[i], p.errs[i]
		if err == nil && s.Oracle && !res.OracleChecked {
			err = fmt.Errorf("oracle not checked")
		}
		if err == nil {
			var d string
			if d, err = digest(res); err == nil && d != ref[digestKey(p.seed, s)] {
				err = fmt.Errorf("digest %s, reference %q", d, ref[digestKey(p.seed, s)])
			}
		}
		if err != nil {
			failed++
			logf("sweep: seed %d %s/%s/%d oracle=%v: %v", p.seed, s.Workload, s.Proto, s.Cores, s.Oracle, err)
		}
	}
	return failed
}

func (p *sweepPass) events() uint64 {
	var n uint64
	for _, r := range p.results {
		if r != nil {
			n += r.Events
		}
	}
	return n
}

func runSweep(e env, traced bool) (*report, error) {
	// Set-up: load the reference digests and warm the engine (pools,
	// heap growth to the size of a pass's machines) on one small run per
	// design and core count.
	ref, setupS, err := setupSeconds(e, 3, func() (map[string]string, error) {
		ref, err := loadDigests(e)
		if err != nil {
			return nil, err
		}
		r := bench.NewRunner(bench.Config{Scale: sweepScale, Seed: simSeeds[0], Tier: true, Jobs: e.workers})
		for _, c := range sweepCores {
			for _, p := range protocols.Names() {
				if _, err := r.Result("racy-single", p, c, 0); err != nil {
					return nil, err
				}
			}
		}
		return ref, nil
	}, func(map[string]string) {})
	if err != nil {
		return nil, err
	}
	if traced {
		return sweepLedger(e, ref)
	}

	// Whole rounds over the reference seeds: every run simulates the same
	// traces, only the order depends on the workload seed.
	n := len(simSeeds)
	passes := (units(e.seconds, sweepPerSecond, n) + n - 1) / n * n
	rep := &report{}
	t := &timed{}
	for k := 0; k < passes; k++ {
		t.begin()
		p := runSweepPass(simSeed(e.seed, k), e.workers)
		t.end(len(p.specs), p.events())
		t.heap()
		runtime.KeepAlive(p.runner)
		t.latency(p.lat)
		rep.Attempted += len(p.specs)
		rep.Failed += p.check(ref)
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics = t.endToEnd(setupS)
	t.log("sweep")
	return rep, nil
}

// sweepLedger is the traced sweep: a warm-up pass, an untraced pass,
// the same pass re-enacted layer by layer under spans, the untraced pass
// again, then calibration. The traced pass is compared with the mean of
// the two untraced ones around it, so a host whose speed drifts during
// the run moves both sides alike. It always simulates the first
// reference seed, so its simulated counts are the same on every traced
// run and across commits.
func sweepLedger(e env, ref map[string]string) (*report, error) {
	seed := simSeeds[0]
	// The first pass of a process pays for heap growth; warm up so the
	// untraced and traced passes compare like with like.
	runSweepPass(simSeeds[1], e.workers)
	p := runSweepPass(seed, e.workers)
	failed := p.check(ref)
	tm := p.runner.Timing()
	p.runner = nil

	tr := newTracer()
	l := newLedger(tr)
	var specs []runSpec
	for _, s := range p.specs {
		specs = append(specs, runSpec{Workload: s.Workload, Proto: s.Proto, Cores: s.Cores, Oracle: s.Oracle, Seed: seed, Scale: sweepScale})
	}
	tracedWall, err := l.reenact(specs, e.workers)
	if err != nil {
		return nil, err
	}
	l.pool = make(map[pairKey][]pair) // free the re-enactment's machines before the next pass builds its own
	q := runSweepPass(seed, e.workers)
	failed += q.check(ref)
	untraced := (p.wall + q.wall) / 2
	if err := l.calibrate(e.workers, true, false); err != nil {
		return nil, err
	}
	var results []*sim.Result
	for _, r := range l.records {
		results = append(results, r.res)
		d, err := digest(r.res)
		if err != nil || d != ref[digestKey(seed, bench.RunSpec{Workload: r.spec.Workload, Proto: r.spec.Proto, Cores: r.spec.Cores, Oracle: r.spec.Oracle})] {
			failed++
			logf("sweep ledger: %s digest mismatch", r.spec)
		}
	}

	m, layers := l.layerMetrics()
	for k, v := range simCounts(results) {
		m[k] = v
	}
	busy := tr.total("job")
	res := residual(busy, untraced, e.workers)
	if math.Abs(res) > residualTolerance {
		failed++
		logf("sweep ledger: the traced self times miss the untraced passes by %.3f of their capacity, more than %.2f", res, residualTolerance)
	}
	failed += l.phased
	m["bench.sim_runs"] = metric{float64(tm.Runs), "count"}
	m["bench.memo_hits"] = metric{float64(len(p.specs) + tm.OracleSkips - tm.Runs - tm.CacheHits), "count"}
	m["bench.worker_util"] = metric{tm.SimTime.Seconds() / (p.wall.Seconds() * float64(e.workers)), "ratio"}
	m["bench.tracing_overhead_ms"] = metric{ms(tracedWall - untraced), "ms"}
	m["bench.ledger_residual"] = metric{res, "ratio"}
	addShares(m, layers, busy)
	printLedger("sweep", layers, busy, untraced, e.workers)
	logf("  traced wall %.3fs (overhead %+.1f ms)", tracedWall.Seconds(), ms(tracedWall-untraced))
	if err := writeSpans(e, tr, "sweep"); err != nil {
		return nil, err
	}
	// The untraced passes' jobs, the re-enacted ones and the residual
	// check are the operations this run attempted.
	return &report{Correct: failed == 0, Attempted: 2*len(p.specs) + len(l.records) + 1, Failed: failed, Metrics: completeLayers(m)}, nil
}

// regenDigests rewrites the reference digests from the current tree:
// one straight-line pass per reference seed, tiering off.
func regenDigests(e env) error {
	d := make(map[string]string)
	var mu sync.Mutex
	for _, seed := range simSeeds {
		r := bench.NewRunner(bench.Config{Scale: sweepScale, Seed: seed, Jobs: e.workers})
		specs := sweepMatrix()
		err := forEach(len(specs), e.workers, func(i int) error {
			res, err := r.SpecResult(context.Background(), specs[i])
			if err != nil {
				return err
			}
			h, err := digest(res)
			mu.Lock()
			d[digestKey(seed, specs[i])] = h
			mu.Unlock()
			return err
		})
		if err != nil {
			return err
		}
		logf("digests: seed %d done", seed)
	}
	raw, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.dir, digestFile), append(raw, '\n'), 0o644)
}
