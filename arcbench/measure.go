package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs; 0
// for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap it found.
// Callers keep the measured system reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// timed accounts for a timed region made of segments — the passes or
// rounds a workload repeats — each started from a collected heap.
type timed struct {
	wall      time.Duration
	allocated uint64
	// Per segment: simulated trace events carried by the delivered
	// results per second, jobs per second, the live heap at its end, and
	// the 50th and 99th percentile of its job latencies (ms).
	eventRates, jobRates, heaps, p50s, p99s []float64
	jobs                                    int
	// all holds every job latency (ms) of the run. With pooled set the
	// latency percentiles are taken over it instead of over segments.
	all    []float64
	pooled bool

	start  time.Time
	allocs uint64
}

// begin starts a segment; set-up garbage is not the segment's.
func (t *timed) begin() {
	runtime.GC()
	t.allocs = allocBytes()
	t.start = time.Now()
}

// end closes a segment that delivered jobs results carrying events
// trace events.
func (t *timed) end(jobs int, events uint64) {
	d := time.Since(t.start)
	t.allocated += allocBytes() - t.allocs
	t.wall += d
	t.eventRates = append(t.eventRates, float64(events)/d.Seconds())
	t.jobRates = append(t.jobRates, float64(jobs)/d.Seconds())
}

// heap records the live heap at a segment's end; the caller keeps the
// system under test reachable across the call.
func (t *timed) heap() { t.heaps = append(t.heaps, liveHeapMB()) }

// latency records the job latencies (ms) of one segment.
func (t *timed) latency(lat []float64) {
	t.p50s = append(t.p50s, quantile(lat, 0.50))
	t.p99s = append(t.p99s, quantile(lat, 0.99))
	t.jobs += len(lat)
	t.all = append(t.all, lat...)
}

// endToEnd renders the end-to-end metric set: rates and the live heap
// are medians over segments, and allocation is the total over the timed
// region. The latency percentiles are medians of the segments' own
// unless pooled is set. The host's speed drifts by tens of percent over
// seconds; where a segment holds few jobs (a 154-job pass), a
// percentile pooled over every job of a run follows the run's slowest
// stretch, the median over segments a typical one. Where a segment holds
// many (an 858-job round), the pooled p99 has ten times the samples
// beyond it and is the steadier of the two.
func (t *timed) endToEnd(setupS float64) map[string]metric {
	p50, p99 := quantile(t.p50s, 0.5), quantile(t.p99s, 0.5)
	if t.pooled {
		p50, p99 = quantile(t.all, 0.5), quantile(t.all, 0.99)
	}
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"sim_events_per_s": {quantile(t.eventRates, 0.5), "events/s"},
		"jobs_per_s":       {quantile(t.jobRates, 0.5), "jobs/s"},
		"job_p50_ms":       {p50, "ms"},
		"job_p99_ms":       {p99, "ms"},
		"heap_live_mb":     {quantile(t.heaps, 0.5), "MB"},
		"alloc_mb":         {float64(t.allocated) / 1e6, "MB"},
	}
}

// log prints every segment's figures on stderr, for re-deriving the
// end-to-end statistics and judging a run's steadiness.
func (t *timed) log(workload string) {
	logf("%s: %d segments, %d jobs, %.2fs timed, event rates %.4g, job rates %.4g, p50s %.4g, p99s %.4g, heaps %.4g, pooled p50 %.4g p99 %.4g",
		workload, len(t.jobRates), t.jobs, t.wall.Seconds(), t.eventRates, t.jobRates, t.p50s, t.p99s, t.heaps, quantile(t.all, 0.5), quantile(t.all, 0.99))
}
