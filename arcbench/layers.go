package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// perLayer is every per-layer metric a traced run reports, with its
// unit; BENCHMARK.json declares the same list. Every workload reports
// all of them: a layer the workload's path does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ns_per_event", "ns/event"},
	{"trace.validate_ns_per_event", "ns/event"},
	{"static.analyze_ns_per_event", "ns/event"},
	{"machine.build_ms", "ms"},
	{"machine.builds", "count"},
	{"machine.reset_ms", "ms"},
	{"machine.resets", "count"},
	{"sim.engine_ns_per_event.c8", "ns/event"},
	{"sim.engine_ns_per_event.c64", "ns/event"},
	{"protocols.mesi.ns_per_event", "ns/event"},
	{"protocols.ce.ns_per_event", "ns/event"},
	{"protocols.ceplus.ns_per_event", "ns/event"},
	{"protocols.arc.ns_per_event", "ns/event"},
	{"core.oracle_ns_per_event", "ns/event"},
	{"witness.examine_ms", "ms"},
	{"witness.replays", "count"},
	{"bench.sim_runs", "count"},
	{"bench.memo_hits", "count"},
	{"bench.worker_util", "ratio"},
	{"bench.tracing_overhead_ms", "ms"},
	{"bench.ledger_residual", "ratio"},
	{"server.queue_wait_ms.p50", "ms"},
	{"server.queue_wait_ms.p99", "ms"},
	{"server.run_ms.p50", "ms"},
	{"server.run_ms.p99", "ms"},
	{"client.overhead_ms.p50", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"mesh.fetch_ms", "ms"},
	{"mesh.fetches", "count"},
	{"mesh.faults", "count"},
	{"sched.dispatch_ms.p50", "ms"},
	{"sched.share.A", "ratio"},
	{"sched.share.B", "ratio"},
	{"sim.cycles", "count"},
	{"cache.l1_misses", "count"},
	{"cache.llc_misses", "count"},
	{"aim.misses", "count"},
	{"noc.flits", "count"},
	{"noc.queue_cycles", "count"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
}

// shareLayers are the layers whose self time a traced run splits its
// end-to-end time into: the sweep's simulation layers, and the job
// path of service (client, daemon queue, daemon run) and fleet
// (scheduler, daemon queue, daemon run). Each is reported as
// "<layer>_share".
var shareLayers = []string{
	"workload.gen", "trace.validate", "static.analyze", "machine.build", "machine.reset",
	"sim.engine", "protocols", "core.oracle", "bench.other",
	"client.self", "sched.self", "server.queue", "server.run",
}

func init() {
	for _, l := range shareLayers {
		perLayer = append(perLayer, struct{ name, unit string }{l + "_share", "ratio"})
	}
}

// completeLayers fills the metrics a workload does not reach with 0 and
// panics on a name the list does not declare (a benchmark bug).
func completeLayers(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		v := m[p.name]
		if v.Unit != "" && v.Unit != p.unit {
			panic(fmt.Sprintf("metric %s: unit %s, declared %s", p.name, v.Unit, p.unit))
		}
		out[p.name] = metric{v.Value, p.unit}
		delete(m, p.name)
	}
	for name := range m {
		panic("undeclared per-layer metric " + name)
	}
	return out
}

// addShares reports each layer's self time as a share of total.
func addShares(m map[string]metric, layers map[string]time.Duration, total time.Duration) {
	for name, d := range layers {
		m[name+"_share"] = metric{d.Seconds() / total.Seconds(), "ratio"}
	}
}

// residual is the share of a run's capacity (wall time × concurrent
// jobs) that the traced root spans do not account for: idle workers,
// tracing overhead and work outside any span.
func residual(traced, wall time.Duration, concurrency int) float64 {
	return 1 - traced.Seconds()/(wall.Seconds()*float64(concurrency))
}

// residualTolerance is how far the traced sweep's layer self times may
// miss the untraced pass's capacity; a larger residual is a failed
// check, because the layers no longer partition the sweep. The
// reference host stays within it (see README.md).
const residualTolerance = 0.25

// printLedger writes the layer table to stderr.
func printLedger(wl string, layers map[string]time.Duration, total, wall time.Duration, workers int) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	logf("%s ledger: self time per layer over %.3fs of traced job time", wl, total.Seconds())
	for _, n := range names {
		logf("  %-16s %10.1f ms  %5.1f%%", n, ms(layers[n]), 100*layers[n].Seconds()/total.Seconds())
	}
	logf("  wall %.3fs, residual %.3f of %d× wall", wall.Seconds(), residual(total, wall, workers), workers)
}

// writeSpans stores the traced run's spans under the build directory.
func writeSpans(e env, tr *tracer, wl string) error {
	path, err := tr.write(filepath.Join(e.out, "spans"), fmt.Sprintf("%s-seed%d.jsonl", wl, e.seed))
	if err == nil {
		logf("%s: spans written to %s", wl, path)
	}
	return err
}
