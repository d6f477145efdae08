package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arcsim/internal/client"
	"arcsim/internal/sched"
	"arcsim/internal/server"
	"arcsim/internal/sim"
)

// --- ParseLoad: the probe's contract with /metrics -------------------

func TestParseLoad(t *testing.T) {
	full := `# HELP arcsimd_up whether the daemon accepts work
arcsimd_up 1
arcsimd_workers 4
arcsimd_busy_workers 3
arcsimd_jobs_running 9
arcsimd_queue_depth 7
arcsimd_queue_capacity 64
arcsimd_jobs_total{state="done"} 12
`
	cases := []struct {
		name    string
		text    string
		want    sched.Load
		wantErr bool
	}{
		{
			name: "full sample",
			text: full,
			want: sched.Load{Workers: 4, Busy: 3, Queue: 7, QueueCap: 64, Up: true},
		},
		{
			name: "busy falls back to jobs_running",
			text: "arcsimd_up 1\narcsimd_workers 2\narcsimd_jobs_running 1\narcsimd_queue_depth 0\n",
			want: sched.Load{Workers: 2, Busy: 1, Queue: 0, Up: true},
		},
		{
			name: "fallback yields to the dedicated gauge in either order",
			text: "arcsimd_up 0\narcsimd_busy_workers 2\narcsimd_jobs_running 5\narcsimd_workers 2\narcsimd_queue_depth 1\n",
			want: sched.Load{Workers: 2, Busy: 2, Queue: 1, Up: false},
		},
		{name: "empty body", text: "", wantErr: true},
		{name: "comments only", text: "# nothing here\n", wantErr: true},
		{
			name:    "missing queue_depth",
			text:    "arcsimd_up 1\narcsimd_workers 2\narcsimd_busy_workers 0\n",
			wantErr: true,
		},
		{
			name:    "unparseable value",
			text:    "arcsimd_up 1\narcsimd_workers banana\narcsimd_queue_depth 0\n",
			wantErr: true,
		},
		{
			name:    "zero workers is implausible",
			text:    "arcsimd_up 1\narcsimd_workers 0\narcsimd_queue_depth 0\n",
			wantErr: true,
		},
		{
			name:    "html error page",
			text:    "<html><body>502 Bad Gateway</body></html>",
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseLoad([]byte(tc.text))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseLoad = %+v, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseLoad: %v", err)
			}
			if got != tc.want {
				t.Fatalf("ParseLoad = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// --- fleet harness ---------------------------------------------------

// fastClient keeps retry backoffs in the microsecond range.
func fastClient() client.Options {
	return client.Options{
		Retry:          client.Retry{Attempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond},
		RequestTimeout: 2 * time.Second,
	}
}

func syntheticResult(spec client.JobSpec) *sim.Result {
	return &sim.Result{
		Workload: spec.Workload,
		Protocol: spec.Protocol,
		Cores:    spec.Cores,
		Cycles:   uint64(1000 + len(spec.Workload)),
	}
}

func instantRun(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
	return syntheticResult(spec), nil
}

// newDaemon builds a real server.Server with the given worker count and
// run stub, optionally wrapping its handler (to garble /metrics).
func newDaemon(t *testing.T, workers int, run func(ctx context.Context, spec server.JobSpec) (*sim.Result, error), wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Workers: workers, QueueDepth: 64})
	if run != nil {
		srv.SetRunJob(run)
	}
	srv.Start()
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck
	})
	return ts
}

func testOptions() Options {
	return Options{
		Client:        fastClient(),
		ProbeInterval: 5 * time.Millisecond,
		Sched: sched.Options{
			CooldownBase: 10 * time.Millisecond,
			CooldownMax:  50 * time.Millisecond,
			MaxAttempts:  4,
		},
	}
}

// startScheduler starts a Scheduler over the endpoints for the test's
// lifetime. In round-robin mode (forced, or while some endpoint serves
// no /metrics) the first job lands on the first endpoint listed.
func startScheduler(t *testing.T, opts Options, endpoints ...string) *Scheduler {
	t.Helper()
	s := New(endpoints, opts)
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	t.Cleanup(func() {
		cancel()
		s.Stop()
	})
	return s
}

// runSweep pushes n jobs through the scheduler concurrently and returns
// results indexed by job. Completion is synchronized by the Run calls
// themselves — no sleeps.
// sweepSpec maps a job index onto a real catalog workload (the daemon
// validates specs at submit).
func sweepSpec(i int) client.JobSpec {
	wls := []string{"lu", "radix", "barnes", "water", "x264", "dedup", "ferret", "canneal"}
	// Power-of-two core counts: the arc protocol tiles its directory and
	// rejects counts that do not divide it.
	return client.JobSpec{Workload: wls[i%len(wls)], Protocol: "arc", Cores: 1 << (i % 3)}
}

func runSweep(t *testing.T, s *Scheduler, n int) ([]*sim.Result, []error) {
	t.Helper()
	results := make([]*sim.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := sweepSpec(i)
			cost := sched.EstimateCost(sched.CostInputs{Events: 1000 * (i + 1), Cores: spec.Cores})
			results[i], errs[i] = s.Run(context.Background(), spec, cost, 0)
		}(i)
	}
	wg.Wait()
	return results, errs
}

// --- integration: a real sweep over real daemons ---------------------

// TestFleetSweepCompletes: a heterogeneous sweep over two daemons with
// asymmetric worker counts completes exactly once per job with results
// identical to the stub's canonical output, and the scheduler reaches
// cost-model mode once probes land.
func TestFleetSweepCompletes(t *testing.T) {
	fast := newDaemon(t, 4, instantRun, nil)
	slow := newDaemon(t, 1, instantRun, nil)

	s := startScheduler(t, testOptions(), fast.URL, slow.URL)

	results, errs := runSweep(t, s, 12)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want := syntheticResult(sweepSpec(i))
		got := results[i]
		if got == nil || got.Workload != want.Workload || got.Protocol != want.Protocol ||
			got.Cores != want.Cores || got.Cycles != want.Cycles {
			t.Fatalf("job %d result = %+v, want %+v", i, got, want)
		}
	}

	// With both daemons answering /metrics, probes must promote the
	// policy out of degraded mode (bounded poll: probe cadence is
	// milliseconds, and under the race detector a just-taken sample can
	// already be past the default StaleAfter at any single instant).
	deadline := time.Now().Add(5 * time.Second)
	for s.Mode() != sched.ModeCostModel {
		if time.Now().After(deadline) {
			t.Fatalf("Mode = %v after successful probes, want ModeCostModel", s.Mode())
		}
		yield()
	}
	snap := s.Snapshot()
	if snap.Pending != 0 {
		t.Fatalf("Snapshot.Pending = %d after sweep, want 0", snap.Pending)
	}
	for _, e := range snap.Endpoints {
		if e.Queued+e.Running+e.Stealing != 0 {
			t.Fatalf("endpoint %s still has work after sweep: %+v", e.Name, e)
		}
	}
}

// --- fault injection: the load probe must degrade, not wedge ---------

// garbleMetrics serves garbage from /metrics and proxies everything
// else to the real daemon.
func garbleMetrics(body string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				fmt.Fprint(w, body)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestGarbledMetricsDegradesToRoundRobin: daemons whose /metrics serve
// unparseable or partial text keep the scheduler in round-robin mode,
// and the sweep still completes — a broken probe must never wedge
// dispatch.
func TestGarbledMetricsDegradesToRoundRobin(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"unparseable", "<html>oops</html>"},
		{"partial", "arcsimd_up 1\narcsimd_workers 2\n"}, // no queue_depth
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newDaemon(t, 2, instantRun, garbleMetrics(tc.body))
			b := newDaemon(t, 2, instantRun, garbleMetrics(tc.body))

			s := startScheduler(t, testOptions(), a.URL, b.URL)

			results, errs := runSweep(t, s, 8)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				if results[i] == nil {
					t.Fatalf("job %d: nil result", i)
				}
			}
			if got := s.Mode(); got != sched.ModeRoundRobin {
				t.Fatalf("Mode = %v with garbled /metrics, want ModeRoundRobin", got)
			}
		})
	}
}

// TestStaleProbesDegrade: one daemon's /metrics goes dark after the
// first scrape; once its sample ages past StaleAfter the scheduler
// drops to round-robin rather than planning on fiction, and jobs still
// complete on both endpoints.
func TestStaleProbesDegrade(t *testing.T) {
	var stale sync.Once
	var dark bool
	var mu sync.Mutex
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				mu.Lock()
				d := dark
				stale.Do(func() { dark = true }) // first scrape succeeds, rest hang up
				mu.Unlock()
				if d {
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
	a := newDaemon(t, 2, instantRun, wrap)
	b := newDaemon(t, 2, instantRun, nil)

	opts := testOptions()
	opts.Sched.StaleAfter = 15 * time.Millisecond
	s := startScheduler(t, opts, a.URL, b.URL)

	// Wait (bounded) for the stale sample to demote the mode; the tick
	// loop re-evaluates every ProbeInterval.
	deadline := time.Now().Add(5 * time.Second)
	for s.Mode() != sched.ModeRoundRobin {
		if time.Now().After(deadline) {
			t.Fatalf("Mode = %v, never degraded to round-robin on stale probe", s.Mode())
		}
		yield()
	}

	if _, err := s.Run(context.Background(), client.JobSpec{Workload: "swaptions", Protocol: "arc", Cores: 1}, 10, 0); err != nil {
		t.Fatalf("Run in degraded mode: %v", err)
	}
}

// TestAllEndpointsDownFailsFast: with every endpoint refusing
// connections, Run returns client.ErrNoEndpoints instead of blocking —
// the caller's cue to fall back to local execution.
func TestAllEndpointsDownFailsFast(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2.Close()

	opts := testOptions()
	opts.Sched.CooldownBase = 100 * time.Millisecond // keep them benched for the whole test
	s := startScheduler(t, opts, dead1.URL, dead2.URL)

	runCtx, runCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer runCancel()
	_, err := s.Run(runCtx, client.JobSpec{Workload: "doomed", Protocol: "arc", Cores: 1}, 10, 0)
	if !errors.Is(err, client.ErrNoEndpoints) {
		t.Fatalf("Run with all endpoints down = %v, want ErrNoEndpoints", err)
	}
}

// TestOperatorCancelIsFinal: an operator cancel (no recognized requeue
// reason) surfaces as client.ErrJobCanceled and is not resurrected —
// the cancel taxonomy preserved through the scheduler.
func TestOperatorCancelIsFinal(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	var runs atomic.Int64
	started := make(chan string, 1)
	srv := server.New(server.Config{Workers: 1, QueueDepth: 8})
	srv.SetRunJob(func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		runs.Add(1)
		once.Do(func() { started <- spec.Workload })
		select {
		case <-release:
			return syntheticResult(spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		close(release)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck
	})

	s := startScheduler(t, testOptions(), ts.URL)

	errCh := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), client.JobSpec{Workload: "raytrace", Protocol: "arc", Cores: 1}, 10, 0)
		errCh <- err
	}()
	<-started // the stub is live: the job exists and is running

	// Operator cancel via the raw API (no ?reason): final, not failover.
	c := client.New(ts.URL, fastClient())
	var canceled bool
	deadline := time.Now().Add(5 * time.Second)
	for !canceled && time.Now().Before(deadline) {
		// The remote id is daemon-assigned; find it through the snapshot
		// of running jobs on the daemon side by just canceling everything.
		if err := cancelAllJobs(c); err == nil {
			canceled = true
		}
	}
	if !canceled {
		t.Fatal("could not deliver operator cancel")
	}

	select {
	case err := <-errCh:
		if !errors.Is(err, client.ErrJobCanceled) {
			t.Fatalf("Run after operator cancel = %v, want ErrJobCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after operator cancel")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("canceled job started %d times, want 1 (no resurrection)", n)
	}
	if !endpointHealthy(t, s, ts.URL) {
		t.Fatal("endpoint benched: the daemon honored the cancel correctly")
	}
}

// cancelAllJobs cancels every job listed by the daemon.
func cancelAllJobs(c *client.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	views, err := c.List(ctx)
	if err != nil {
		return err
	}
	any := false
	for _, v := range views {
		if v.State == server.StateRunning || v.State == server.StateQueued {
			if err := c.Cancel(ctx, v.ID); err == nil {
				any = true
			}
		}
	}
	if !any {
		return errors.New("no cancelable jobs yet")
	}
	return nil
}

// newKillableDaemon is newDaemon plus a kill switch. The crash is
// modeled at the HTTP layer: once killed, every request — including SSE
// reconnects — is refused and open streams are cut, like a dead daemon
// behind a connection-refusing kernel. (Closing the listener instead
// would let an unluckily-timed SSE reconnect slip in and stream forever
// against a parked stub.)
func newKillableDaemon(t *testing.T, run func(ctx context.Context, spec server.JobSpec) (*sim.Result, error)) (*httptest.Server, func()) {
	t.Helper()
	var down atomic.Bool
	ts := newDaemon(t, 2, run, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				http.Error(w, "daemon crashed", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	return ts, func() {
		down.Store(true)
		ts.CloseClientConnections()
	}
}

// TestFleetFailover: a daemon that dies mid-sweep loses its jobs to the
// survivor; every job still completes exactly once with the canonical
// result.
func TestFleetFailover(t *testing.T) {
	var killOnce sync.Once
	kill := make(chan struct{})
	release := make(chan struct{})
	defer close(release) // a crashed daemon never reports back; unpark before it drains
	flaky, crash := newKillableDaemon(t, func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		// The first job this daemon runs triggers its death; the job
		// itself parks until the test ends.
		killOnce.Do(func() { close(kill) })
		select {
		case <-release:
			return syntheticResult(spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	var mu sync.Mutex
	completed := map[string]int{} // by workload: distinct across the sweep
	healthy := newDaemon(t, 2, func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		mu.Lock()
		completed[spec.Workload]++
		mu.Unlock()
		return syntheticResult(spec), nil
	}, nil)

	opts := testOptions()
	opts.Logf = t.Logf
	s := startScheduler(t, opts, flaky.URL, healthy.URL)

	go func() {
		<-kill
		crash()
	}()

	results, errs := runSweep(t, s, 8)
	mu.Lock()
	defer mu.Unlock()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d after failover: %v", i, err)
		}
		spec := sweepSpec(i)
		if results[i] == nil || results[i].Cycles != syntheticResult(spec).Cycles {
			t.Fatalf("job %d: result %+v", i, results[i])
		}
		if n := completed[spec.Workload]; n != 1 {
			t.Errorf("job %d completed %d times across the fleet, want exactly 1", i, n)
		}
	}
}

// yield briefly parks the polling goroutine between Mode checks (this
// is wall-clock integration territory; the zero-sleep determinism
// mandate lives in simtest, not here).
func yield() { time.Sleep(100 * time.Microsecond) }

// --- failover taxonomy: which terminal states fail over --------------

// endpointHealthy reports the Core's view of one endpoint's health.
func endpointHealthy(t *testing.T, s *Scheduler, name string) bool {
	t.Helper()
	for _, e := range s.Snapshot().Endpoints {
		if e.Name == name {
			return e.Healthy
		}
	}
	t.Fatalf("endpoint %s not in snapshot", name)
	return false
}

// fakeDaemon scripts a daemon's answers: submit n is acknowledged as
// job j<n> and immediately reaches the terminal view end(n, spec)
// returns; a done job's result is the synthetic result of that view's
// spec. It serves no /metrics, so a scheduler over fake daemons stays
// in round-robin mode.
type fakeDaemon struct {
	*httptest.Server
	submits, fetches atomic.Int64
}

func newFakeDaemon(t *testing.T, end func(n int64, spec client.JobSpec) client.JobView) *fakeDaemon {
	t.Helper()
	f := &fakeDaemon{}
	var mu sync.Mutex
	final := map[string]client.JobView{}
	reply := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v) //nolint:errcheck
	}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			var spec client.JobSpec
			json.NewDecoder(r.Body).Decode(&spec) //nolint:errcheck
			n := f.submits.Add(1)
			view := end(n, spec)
			view.ID = fmt.Sprintf("j%06d", n)
			mu.Lock()
			final[view.ID] = view
			mu.Unlock()
			reply(w, http.StatusAccepted, client.JobView{ID: view.ID, Spec: spec, State: server.StateQueued})
			return
		}
		id, op, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
		mu.Lock()
		view, ok := final[id]
		mu.Unlock()
		switch {
		case ok && op == "events":
			w.Header().Set("Content-Type", "text/event-stream")
			data, _ := json.Marshal(view)
			fmt.Fprintf(w, "id: 0\nevent: done\ndata: %s\n\n", data)
		case ok && op == "result":
			f.fetches.Add(1)
			reply(w, http.StatusOK, syntheticResult(view.Spec))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(f.Close)
	return f
}

// TestJobFailureDoesNotFailOver: a deterministic simulation failure is
// the run's answer; re-running it on another daemon would just fail
// again, so the scheduler delivers *client.JobFailedError after one
// execution and benches no endpoint.
func TestJobFailureDoesNotFailOver(t *testing.T) {
	var runs atomic.Int64
	fail := func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		runs.Add(1)
		return nil, errors.New("deadlock detected")
	}
	a := newDaemon(t, 2, fail, nil)
	b := newDaemon(t, 2, fail, nil)
	s := startScheduler(t, testOptions(), a.URL, b.URL)

	_, err := s.Run(context.Background(), client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}, 10, 0)
	var jf *client.JobFailedError
	if !errors.As(err, &jf) {
		t.Fatalf("err = %v, want *client.JobFailedError", err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("failed job executed %d times, want 1 (no failover on deterministic failure)", n)
	}
	for _, ep := range []string{a.URL, b.URL} {
		if !endpointHealthy(t, s, ep) {
			t.Fatalf("endpoint %s benched: job failure is not endpoint failure", ep)
		}
	}
}

// TestRejectsForeignJobAfterIDReuse scripts an id collision: the daemon
// restarts between submit and follow, and the submitted id now names a
// different client's job. The scheduler must notice the spec mismatch,
// never fetch or deliver the foreign result, and resubmit its own spec
// to the same (live, unbenched) daemon.
func TestRejectsForeignJobAfterIDReuse(t *testing.T) {
	mine := client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2, Scale: 0.25, Seed: 1}
	foreign := client.JobSpec{Workload: "radix", Protocol: "ce", Cores: 8, Scale: 0.25, Seed: 1}
	fake := newFakeDaemon(t, func(n int64, spec client.JobSpec) client.JobView {
		if n == 1 {
			// j000001 belongs to the other client in this "lifetime".
			spec = foreign
		}
		return client.JobView{Spec: spec, State: server.StateDone}
	})
	s := startScheduler(t, testOptions(), fake.URL)

	res, err := s.Run(context.Background(), mine, 10, 0)
	if err != nil {
		t.Fatalf("run across id reuse: %v", err)
	}
	if res.Workload != mine.Workload || res.Protocol != mine.Protocol || res.Cores != mine.Cores {
		t.Fatalf("scheduler delivered the foreign job's result: %+v", res)
	}
	if n := fake.submits.Load(); n != 2 {
		t.Fatalf("submits = %d, want 2 (mismatch detected, spec resubmitted)", n)
	}
	if n := fake.fetches.Load(); n != 1 {
		t.Fatalf("result fetches = %d, want 1 (the foreign result is never fetched)", n)
	}
	if !endpointHealthy(t, s, fake.URL) {
		t.Fatal("endpoint benched: id reuse comes from a live daemon, not a fault")
	}
}

// TestDrainCancelFailsOver: a job canceled because its daemon is
// draining is an endpoint fault, not an operator decision — the
// scheduler benches the drainer and reruns the job on the survivor.
func TestDrainCancelFailsOver(t *testing.T) {
	draining := newFakeDaemon(t, func(_ int64, spec client.JobSpec) client.JobView {
		return client.JobView{Spec: spec, State: server.StateCanceled, Error: server.CancelReasonDrain}
	})
	var served atomic.Int64
	survivor := newDaemon(t, 2, func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		served.Add(1)
		return syntheticResult(spec), nil
	}, nil)
	opts := testOptions()
	opts.Sched.CooldownBase, opts.Sched.CooldownMax = time.Minute, time.Minute // benched for the whole test
	s := startScheduler(t, opts, draining.URL, survivor.URL)

	res, err := s.Run(context.Background(), client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}, 10, 0)
	if err != nil {
		t.Fatalf("run across a draining daemon: %v", err)
	}
	if n := draining.submits.Load(); n != 1 {
		t.Fatalf("drainer saw %d submits, want 1 (the job must land there first)", n)
	}
	if res.Workload != "lu" || served.Load() != 1 {
		t.Fatalf("survivor served %d runs, result %+v", served.Load(), res)
	}
	if endpointHealthy(t, s, draining.URL) {
		t.Fatal("drainer still in rotation, want it benched")
	}
	if !endpointHealthy(t, s, survivor.URL) {
		t.Fatal("survivor benched")
	}
}

// TestPreemptCancelRequeues: an external ?reason=preempt cancel of a
// running job is requeue-safe — the scheduler places the job again
// instead of surfacing client.ErrJobCanceled, and the job completes
// exactly once across the fleet.
func TestPreemptCancelRequeues(t *testing.T) {
	var aRuns, bRuns atomic.Int64
	parked := make(chan struct{})
	a := newDaemon(t, 2, func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		if aRuns.Add(1) == 1 {
			close(parked)
		}
		<-ctx.Done()
		return nil, fmt.Errorf("%w: %v", sim.ErrCanceled, context.Cause(ctx))
	}, nil)
	b := newDaemon(t, 2, func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		bRuns.Add(1)
		return syntheticResult(spec), nil
	}, nil)
	opts := testOptions()
	opts.Sched.ForceRoundRobin = true // the job lands on a first, its requeue on b
	s := startScheduler(t, opts, a.URL, b.URL)

	done := make(chan error, 1)
	go func() {
		res, err := s.Run(context.Background(), client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}, 10, 0)
		if err == nil && res.Workload != "lu" {
			err = fmt.Errorf("bad result: %+v", res)
		}
		done <- err
	}()
	<-parked
	c := client.New(a.URL, fastClient())
	views, err := c.List(context.Background())
	if err != nil || len(views) != 1 || views[0].State != server.StateRunning {
		t.Fatalf("daemon a jobs = %+v (%v), want the one running job", views, err)
	}
	if err := c.CancelReason(context.Background(), views[0].ID, "preempt"); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after a preempt cancel = %v, want a result", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after the preempt cancel")
	}
	if aRuns.Load() != 1 || bRuns.Load() != 1 {
		t.Fatalf("runs: a=%d b=%d, want the preempted run on a and exactly one completion on b", aRuns.Load(), bRuns.Load())
	}
}

// --- endpoint death and the all-down contract ------------------------

// TestFailsOverWhenEndpointDies: the daemon holding a lone in-flight
// job dies mid-run. The scheduler benches it, reruns the job on the
// survivor and returns the result, so the caller never sees the death;
// the next job goes straight to the survivor.
func TestFailsOverWhenEndpointDies(t *testing.T) {
	stuck := make(chan struct{})
	defer close(stuck) // releases the parked run before the daemon drains
	running := make(chan struct{})
	var once sync.Once
	dying, kill := newKillableDaemon(t, func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		once.Do(func() { close(running) })
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-stuck:
			return nil, errors.New("daemon died")
		}
	})
	var served atomic.Int64
	survivor := newDaemon(t, 2, func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		served.Add(1)
		return syntheticResult(spec), nil
	}, nil)
	opts := testOptions()
	opts.Sched.ForceRoundRobin = true                                          // the job lands on the dying daemon first
	opts.Sched.CooldownBase, opts.Sched.CooldownMax = time.Minute, time.Minute // benched for the whole test
	s := startScheduler(t, opts, dying.URL, survivor.URL)
	go func() {
		select {
		case <-running:
			kill()
		case <-stuck:
		}
	}()

	res, err := s.Run(context.Background(), client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}, 10, 0)
	if err != nil {
		t.Fatalf("run across endpoint death: %v", err)
	}
	if res.Workload != "lu" || res.Cycles != syntheticResult(client.JobSpec{Workload: "lu"}).Cycles {
		t.Fatalf("bad result: %+v", res)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("survivor executed %d times, want 1", n)
	}
	if endpointHealthy(t, s, dying.URL) {
		t.Fatal("dead daemon still in rotation, want it benched")
	}
	if !endpointHealthy(t, s, survivor.URL) {
		t.Fatal("survivor benched")
	}
	if _, err := s.Run(context.Background(), client.JobSpec{Workload: "radix", Protocol: "arc", Cores: 2}, 10, 0); err != nil {
		t.Fatalf("post-failover run: %v", err)
	}
	if n := served.Load(); n != 2 {
		t.Fatalf("survivor executed %d times after the second run, want 2", n)
	}
}

// TestExactlyOnceAcrossKill drives a sequential sweep of distinct specs
// through two daemons and kills one halfway. Every spec completes with
// its canonical result, and none completes more than once across the
// fleet.
func TestExactlyOnceAcrossKill(t *testing.T) {
	var mu sync.Mutex
	completed := map[string]int{} // by workload: distinct across the sweep
	count := func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		mu.Lock()
		completed[spec.Workload]++
		mu.Unlock()
		return syntheticResult(spec), nil
	}
	dying, kill := newKillableDaemon(t, count)
	other := newDaemon(t, 2, count, nil)
	s := startScheduler(t, testOptions(), dying.URL, other.URL)

	const n = 6
	results := make([]*sim.Result, n)
	for i := 0; i < n; i++ {
		if i == n/2 {
			kill() // one daemon dies mid-sweep
		}
		spec := sweepSpec(i)
		res, err := s.Run(context.Background(), spec, 10, 0)
		if err != nil {
			t.Fatalf("spec %s: %v", spec.Workload, err)
		}
		results[i] = res
	}
	mu.Lock()
	defer mu.Unlock()
	for i, res := range results {
		spec := sweepSpec(i)
		if n := completed[spec.Workload]; n != 1 {
			t.Errorf("spec %s completed %d times across the fleet, want exactly 1", spec.Workload, n)
		}
		if want := syntheticResult(spec); res.Workload != want.Workload || res.Cycles != want.Cycles {
			t.Errorf("spec %s: wrong result %+v", spec.Workload, res)
		}
	}
}

// TestAllDownReturnsErrNoEndpoints: once every endpoint is benched,
// each further Run answers client.ErrNoEndpoints promptly instead of
// waiting out the cooldowns; cmd/experiments maps that error to
// bench.ErrRemoteUnavailable and runs the sweep locally.
func TestAllDownReturnsErrNoEndpoints(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2.Close()
	opts := testOptions()
	opts.Sched.CooldownBase, opts.Sched.CooldownMax = time.Minute, time.Minute // benched endpoints stay benched
	s := startScheduler(t, opts, dead1.URL, dead2.URL)

	start := time.Now()
	for _, wl := range []string{"lu", "radix"} {
		_, err := s.Run(context.Background(), client.JobSpec{Workload: wl, Protocol: "arc", Cores: 2}, 10, 0)
		if !errors.Is(err, client.ErrNoEndpoints) {
			t.Fatalf("run %s: err = %v, want ErrNoEndpoints", wl, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("all-down detection took %v", elapsed)
	}
	for _, ep := range []string{dead1.URL, dead2.URL} {
		if endpointHealthy(t, s, ep) {
			t.Fatalf("dead endpoint %s still in rotation", ep)
		}
	}
}

// TestOperatorCancelDoesNotFailOver: an operator cancel of a job
// running on one of two daemons surfaces as client.ErrJobCanceled. The
// job is not resurrected on the other daemon, and the daemon that
// honored the cancel is not benched.
func TestOperatorCancelDoesNotFailOver(t *testing.T) {
	var runs atomic.Int64
	running := make(chan struct{}, 4)
	block := func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		runs.Add(1)
		running <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	a := newDaemon(t, 2, block, nil)
	b := newDaemon(t, 2, block, nil)
	s := startScheduler(t, testOptions(), a.URL, b.URL)

	errCh := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}, 10, 0)
		errCh <- err
	}()
	<-running // the job is mid-run on one of the daemons
	canceled := false
	for _, ep := range []string{a.URL, b.URL} {
		c := client.New(ep, fastClient())
		views, err := c.List(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if v.State == server.StateRunning {
				if err := c.Cancel(context.Background(), v.ID); err != nil {
					t.Fatal(err)
				}
				canceled = true
			}
		}
	}
	if !canceled {
		t.Fatal("no running job found to cancel")
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, client.ErrJobCanceled) {
			t.Fatalf("err = %v, want ErrJobCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after the cancel")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("canceled job started %d times, want 1 (no resurrection)", n)
	}
	for _, ep := range []string{a.URL, b.URL} {
		if !endpointHealthy(t, s, ep) {
			t.Fatalf("endpoint %s benched: a cancel is not an endpoint fault", ep)
		}
	}
}
