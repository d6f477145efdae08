package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"arcsim/internal/sim"
)

// TestExecServesRuns wires a scripted Exec and checks it fully replaces
// local execution: results come back through the memo, remote accounting
// is kept, and nothing simulates locally.
func TestExecServesRuns(t *testing.T) {
	var calls atomic.Int64
	cfg := quickCfg()
	cfg.Exec = func(ctx context.Context, spec RunSpec) (*sim.Result, error) {
		calls.Add(1)
		return &sim.Result{Workload: spec.Workload, Protocol: spec.Proto, Cores: spec.Cores, Cycles: 123}, nil
	}
	r := NewRunner(cfg)
	res, err := r.Result("fft", "arc", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 123 {
		t.Fatalf("remote result not served: %+v", res)
	}
	// A repeat hits the memo, not the fleet.
	if _, err := r.Result("fft", "arc", 4, 0); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("Exec called %d times, want 1 (memo must dedup)", n)
	}
	tm := r.Timing()
	if tm.RemoteRuns != 1 || tm.Runs != 0 {
		t.Fatalf("timing RemoteRuns=%d Runs=%d, want 1/0", tm.RemoteRuns, tm.Runs)
	}
}

// TestExecFallsBackLocally: an Exec that reports the fleet down must not
// fail the run — the runner executes locally and the result is real.
func TestExecFallsBackLocally(t *testing.T) {
	var calls atomic.Int64
	cfg := quickCfg()
	cfg.Exec = func(ctx context.Context, spec RunSpec) (*sim.Result, error) {
		calls.Add(1)
		return nil, fmt.Errorf("%w: all 2 endpoints benched", ErrRemoteUnavailable)
	}
	r := NewRunner(cfg)
	res, err := r.Result("falseshare", "arc", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("local fallback produced an empty result")
	}
	tm := r.Timing()
	if tm.Runs != 1 || tm.RemoteRuns != 0 {
		t.Fatalf("timing Runs=%d RemoteRuns=%d, want 1/0", tm.Runs, tm.RemoteRuns)
	}
	if calls.Load() != 1 {
		t.Fatalf("Exec called %d times, want 1", calls.Load())
	}
}

// TestExecErrorFailsRun: a non-unavailable Exec error is the run's
// outcome (no silent local retry that would mask a broken fleet).
func TestExecErrorFailsRun(t *testing.T) {
	cfg := quickCfg()
	boom := errors.New("backend exploded")
	cfg.Exec = func(ctx context.Context, spec RunSpec) (*sim.Result, error) {
		return nil, boom
	}
	r := NewRunner(cfg)
	if _, err := r.Result("fft", "arc", 4, 0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the backend error", err)
	}
	if tm := r.Timing(); tm.Runs != 0 {
		t.Fatalf("failed remote run executed locally anyway: %+v", tm)
	}
}

// TestExecExactlyOncePerSpec hammers the memo from many goroutines and
// checks each distinct spec reaches the fleet exactly once — the
// client-side half of the sweep's no-double-execution guarantee.
func TestExecExactlyOncePerSpec(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	cfg := quickCfg()
	cfg.Exec = func(ctx context.Context, spec RunSpec) (*sim.Result, error) {
		mu.Lock()
		seen[spec.key().String()]++
		mu.Unlock()
		return &sim.Result{Cycles: 1}, nil
	}
	r := NewRunner(cfg)
	specs := []RunSpec{
		{Workload: "fft", Proto: "arc", Cores: 2},
		{Workload: "fft", Proto: "ce", Cores: 2},
		{Workload: "fft", Proto: "arc", Cores: 4},
		{Workload: "lu", Proto: "arc", Cores: 2, Oracle: true},
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range specs {
				if _, err := r.SpecResult(context.Background(), s); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(specs) {
		t.Fatalf("pool saw %d distinct specs, want %d: %v", len(seen), len(specs), seen)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("spec %s dispatched %d times, want exactly 1", k, n)
		}
	}
}

// TestRemoteRoundTripByteIdentical proves the wire path cannot change
// science: a result serialized with the store's canonical encoding and
// decoded back (what a remote fetch does) re-encodes to identical bytes
// as the locally simulated original.
func TestRemoteRoundTripByteIdentical(t *testing.T) {
	local := NewRunner(quickCfg())
	direct, err := local.Result("falseshare", "arc", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickCfg()
	cfg.Exec = func(ctx context.Context, spec RunSpec) (*sim.Result, error) {
		var res sim.Result
		if err := json.Unmarshal(wire, &res); err != nil {
			return nil, err
		}
		return &res, nil
	}
	remoteRunner := NewRunner(cfg)
	viaWire, err := remoteRunner.Result("falseshare", "arc", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	reencoded, err := json.Marshal(viaWire)
	if err != nil {
		t.Fatal(err)
	}
	if string(reencoded) != string(wire) {
		t.Fatalf("wire round-trip not byte-identical:\n direct %s\n remote %s", wire, reencoded)
	}
}
