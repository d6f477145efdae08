package arcsim_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"arcsim"
)

func TestRunAllProtocolsOnQuickWorkload(t *testing.T) {
	for _, p := range arcsim.Protocols() {
		rep, err := arcsim.Run(arcsim.Config{
			Protocol: p,
			Workload: "blackscholes",
			Cores:    4,
			Scale:    0.02,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if rep.Protocol != string(p) || rep.Cores != 4 {
			t.Errorf("report identity wrong: %+v", rep)
		}
		if rep.Cycles == 0 || rep.MemAccesses == 0 {
			t.Errorf("%s: empty run", p)
		}
		if len(rep.Conflicts) != 0 {
			t.Errorf("%s: conflicts in DRF workload", p)
		}
		if !strings.Contains(rep.String(), "cycles") {
			t.Error("String() missing content")
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := arcsim.Run(arcsim.Config{Protocol: arcsim.ARC, Workload: "doom"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if _, err := arcsim.Run(arcsim.Config{Protocol: "token", Workload: "x264"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestWorkloadsCatalog(t *testing.T) {
	ws := arcsim.Workloads()
	if len(ws) != 17 {
		t.Fatalf("catalog size = %d, want 17", len(ws))
	}
	racy := 0
	for _, w := range ws {
		if w.Name == "" || w.Description == "" {
			t.Errorf("incomplete catalog entry: %+v", w)
		}
		if w.Racy {
			racy++
		}
	}
	if racy != 3 {
		t.Errorf("racy workloads = %d, want 3", racy)
	}
}

func TestTraceBuilderRacyPair(t *testing.T) {
	tb := arcsim.NewTraceBuilder("custom-race", 2)
	tb.Write(0, 0x1000, 8).Compute(0, 500)
	tb.Compute(1, 50).Read(1, 0x1000, 8)
	tr, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := arcsim.RunTrace(arcsim.Config{
		Protocol: arcsim.CEPlus, Cores: 2, VerifyWithOracle: true,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Conflicts) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(rep.Conflicts))
	}
	c := rep.Conflicts[0]
	if c.LineAddr != 0x1000 || c.FirstCore != 0 || c.SecondCore != 1 {
		t.Errorf("conflict attribution: %+v", c)
	}
	if !c.FirstWrote || c.SecondWrote {
		t.Errorf("conflict kinds: %+v", c)
	}
	if c.String() == "" {
		t.Error("empty conflict string")
	}
}

func TestTraceBuilderLockedIsDRF(t *testing.T) {
	tb := arcsim.NewTraceBuilder("custom-locked", 2)
	for th := 0; th < 2; th++ {
		for i := 0; i < 20; i++ {
			tb.Acquire(th, 7)
			tb.Read(th, 0x2000, 8).Write(th, 0x2000, 8)
			tb.Release(th, 7)
		}
	}
	tr, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []arcsim.Protocol{arcsim.CE, arcsim.ARC} {
		rep, err := arcsim.RunTrace(arcsim.Config{Protocol: p, Cores: 2, VerifyWithOracle: true}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Conflicts) != 0 {
			t.Errorf("%s: locked accesses conflicted", p)
		}
	}
}

func TestTraceBuilderErrors(t *testing.T) {
	if _, err := arcsim.NewTraceBuilder("x", 0).Build(); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := arcsim.NewTraceBuilder("x", 1).Read(5, 0, 8).Build(); err == nil {
		t.Error("out-of-range thread accepted")
	}
	if _, err := arcsim.NewTraceBuilder("x", 1).Read(0, 62, 8).Build(); err == nil {
		t.Error("line-crossing access accepted")
	}
	if _, err := arcsim.NewTraceBuilder("x", 1).Acquire(0, 1).Build(); err == nil {
		t.Error("unreleased lock accepted")
	}
}

func TestRunTraceThreadMismatch(t *testing.T) {
	tr, err := arcsim.NewTraceBuilder("two", 2).Read(0, 0, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arcsim.RunTrace(arcsim.Config{Protocol: arcsim.Mesi, Cores: 4}, tr); err == nil {
		t.Fatal("thread/core mismatch accepted")
	}
}

func TestRunTraceNil(t *testing.T) {
	if _, err := arcsim.RunTrace(arcsim.Config{Protocol: arcsim.Mesi}, nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	tr, err := arcsim.NewTraceBuilder("rt", 2).Write(0, 0x40, 4).Read(1, 0x80, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := arcsim.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "rt" || got.Threads() != 2 || got.Events() != tr.Events() {
		t.Errorf("round trip changed trace: %s %d %d", got.Name(), got.Threads(), got.Events())
	}
}

func TestAIMEntriesOverride(t *testing.T) {
	rep, err := arcsim.Run(arcsim.Config{
		Protocol: arcsim.CEPlus, Workload: "racy-sharing", Cores: 4, Scale: 0.05,
		AIMEntries: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AIMHits+rep.AIMMisses == 0 {
		t.Error("AIM unused")
	}
	// An impossible AIM geometry must be rejected.
	if _, err := arcsim.Run(arcsim.Config{
		Protocol: arcsim.CEPlus, Workload: "canneal", Cores: 4, Scale: 0.05,
		AIMEntries: 100,
	}); err == nil {
		t.Error("invalid AIM geometry accepted")
	}
}

// TestAIMEntriesKeepsMachineAssociativity: AIMEntries overrides only
// the AIM capacity. On a custom machine with a 4-way AIM, asking for
// 4096 entries through AIMEntries must simulate exactly the machine
// whose JSON says 4096 entries — not an 8-way AIM of that size.
func TestAIMEntriesKeepsMachineAssociativity(t *testing.T) {
	def, err := arcsim.DefaultMachineJSON(8)
	if err != nil {
		t.Fatal(err)
	}
	machineJSON := func(entries string) []byte {
		s := strings.Replace(string(def), `"Entries": 32768`, `"Entries": `+entries, 1)
		s = strings.Replace(s, `"Ways": 8,
    "Latency": 3`, `"Ways": 4,
    "Latency": 3`, 1)
		if !strings.Contains(s, `"Ways": 4`) || !strings.Contains(s, `"Entries": `+entries) {
			t.Fatalf("default machine JSON changed shape:\n%s", def)
		}
		return []byte(s)
	}
	run := func(entriesJSON string, aimEntries int) *arcsim.Report {
		t.Helper()
		rep, err := arcsim.Run(arcsim.Config{
			Protocol: arcsim.CEPlus, Workload: "aimstress", Scale: 0.2,
			MachineJSON: machineJSON(entriesJSON), AIMEntries: aimEntries,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	inJSON := run("4096", 0)
	overridden := run("32768", 4096)
	if inJSON.AIMMisses == 0 {
		t.Fatal("aimstress missed nothing in a 4096-entry AIM: the test exercises no pressure")
	}
	if !reflect.DeepEqual(inJSON, overridden) {
		t.Fatalf("AIMEntries override changed more than capacity: AIM misses %d (entries in JSON) vs %d (AIMEntries)",
			inJSON.AIMMisses, overridden.AIMMisses)
	}
}

func TestFailStop(t *testing.T) {
	rep, err := arcsim.Run(arcsim.Config{
		Protocol: arcsim.ARC, Workload: "racy-sharing", Cores: 4, Scale: 0.05,
		FailStop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Halted || len(rep.Conflicts) != 1 {
		t.Errorf("fail-stop: halted=%v conflicts=%d", rep.Halted, len(rep.Conflicts))
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	rep, err := arcsim.Run(arcsim.Config{
		Protocol: arcsim.Mesi, Workload: "swaptions", Cores: 2, Scale: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IPC() <= 0 {
		t.Error("IPC not positive")
	}
	if hr := rep.L1HitRate(); hr <= 0 || hr > 1 {
		t.Errorf("hit rate %f out of range", hr)
	}
}

func TestMachineJSONOverride(t *testing.T) {
	data, err := arcsim.DefaultMachineJSON(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := arcsim.Run(arcsim.Config{
		Protocol: arcsim.Mesi, Workload: "dedup", Scale: 0.03,
		Cores:       16, // overridden by the machine description below
		MachineJSON: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cores != 4 {
		t.Errorf("cores = %d, want 4 (from MachineJSON)", rep.Cores)
	}
	// Invalid JSON must be rejected.
	if _, err := arcsim.Run(arcsim.Config{
		Protocol: arcsim.Mesi, Workload: "dedup",
		MachineJSON: []byte(`{"Cores": -1}`),
	}); err == nil {
		t.Error("invalid machine JSON accepted")
	}
}
