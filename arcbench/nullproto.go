package main

import (
	"arcsim/internal/core"
	"arcsim/internal/machine"
)

// nullProtocol is a machine.Protocol that does no coherence or conflict
// work: every access and every region boundary costs one cycle and
// touches no cache, AIM or DRAM state. Running sim.Run with it times the
// engine's dispatch loop alone (event fetch, core pick, synchronisation,
// the NoC round trips of lock and barrier operations), so a design's
// protocol cost is its run time minus the null run on the same trace.
type nullProtocol struct{}

func (nullProtocol) Name() string                                   { return "null" }
func (nullProtocol) Access(uint64, core.CoreID, core.Access) uint64 { return 1 }
func (nullProtocol) Boundary(uint64, core.CoreID) uint64            { return 1 }

var _ machine.Protocol = nullProtocol{}
