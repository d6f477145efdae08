// Command arcbench is arcsim's end-to-end and per-layer benchmark. One
// process runs one workload — sweep (the paper-evaluation path through
// bench.Runner), service (closed-loop clients against an in-process
// arcsimd) or fleet (a scheduled sweep over two peered daemons) — and
// prints one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced;
// with -trace 1 they are the per-layer ledger, measured by a traced run
// that also writes its spans under the build directory. README.md lists
// every metric and why each workload exists; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs from the command line.
type env struct {
	seed    int64
	seconds float64
	workers int    // goroutines doing work: nproc
	out     string // build directory inside the checkout: spans land here
	work    string // this run's scratch directory under out, removed at exit
	dir     string // the benchmark's source directory (reference digests)
	// initOverhead is process start to main: exec, runtime and package
	// initialisation. It is part of every set-up time.
	initOverhead time.Duration
}

func main() {
	wl := flag.String("workload", "", "sweep, service or fleet")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "nominal measured seconds; sizes each workload's fixed amount of work")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	work := flag.String("work", ".bench_build", "directory for stores, spans and scratch files")
	dir := flag.String("dir", "arcbench", "the benchmark's source directory")
	startNS := flag.Int64("start-ns", 0, "process start as Unix nanoseconds (set by run.sh)")
	regen := flag.Bool("regen-digests", false, "rewrite the sweep reference digests from the current tree and exit")
	flag.Parse()

	mainAt := time.Now()
	e := env{seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), dir: *dir}
	if *startNS > 0 {
		if d := mainAt.Sub(time.Unix(0, *startNS)); d > 0 {
			e.initOverhead = d
		}
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("bad -seconds %v or -trace %d", *seconds, *traced))
	}
	abs, err := filepath.Abs(*work)
	if err != nil {
		fatal(err)
	}
	e.out = mkdirAll(abs)
	e.work, err = os.MkdirTemp(e.out, "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(e.work)

	if *regen {
		if err := regenDigests(e); err != nil {
			fatal(err)
		}
		return
	}

	var rep *report
	switch *wl {
	case "sweep":
		rep, err = runSweep(e, *traced == 1)
	case "service":
		rep, err = runService(e, *traced == 1)
	case "fleet":
		rep, err = runFleet(e, *traced == 1)
	default:
		err = fmt.Errorf("unknown -workload %q (want sweep, service or fleet)", *wl)
	}
	if err != nil {
		os.RemoveAll(e.work)
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arcbench:", err)
	os.Exit(1)
}

// logf prints a progress or summary line on stderr; stdout carries only
// the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// units scales a workload's nominal work rate (units per second,
// measured on a 2-vCPU host) to the run length, never below min. The
// work, not the clock, ends the timed region: a faster tree then does
// the same work in less time, so every metric compares equal work.
func units(seconds, perSecond float64, min int) int {
	n := int(seconds*perSecond + 0.5)
	if n < min {
		n = min
	}
	return n
}

// medianDuration returns the median of ds (which it sorts).
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// setupSeconds times n set-ups and reports the median plus the
// process-start overhead, as the setup_s metric. keep receives the
// last set-up's value; earlier ones are torn down by discard.
func setupSeconds[T any](e env, n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(t0))
		if i < n-1 {
			discard(v)
		} else {
			last = v
		}
	}
	return last, (e.initOverhead + medianDuration(ds)).Seconds(), nil
}
