package experiment

import (
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/sim"
)

// bulkOpts is the small bulk-transfer harness: fewer connections than
// small() because each moves 80KB instead of ~2KB.
func bulkOpts() Options {
	o := small()
	o.ConcurrencyPerCore = 25
	o.Bulk = true
	return o
}

func fastsocketSpec() KernelSpec { return StockKernels()[2] }

// TestOffloadCountersNonVacuous: with every offload on, the bulk bed
// must actually exercise all three mechanisms — otherwise the
// equivalence and speedup claims test nothing.
func TestOffloadCountersNonVacuous(t *testing.T) {
	o := bulkOpts()
	o.Offloads = AllOffloads()
	m := Measure(fastsocketSpec(), WebBench, 4, o)
	if m.Throughput <= 0 || m.Errors != 0 {
		t.Fatalf("bulk offload run unhealthy: tput=%v errors=%d", m.Throughput, m.Errors)
	}
	if m.SNMP.TSOSuperSegs == 0 {
		t.Error("no TSO super-segments transmitted")
	}
	if m.SNMP.GROMergedSegs == 0 {
		t.Error("no GRO merges")
	}
	if m.SNMP.CoalescedWakeups == 0 {
		t.Error("no coalesced IRQ wakeups")
	}
}

// TestOffloadOffIsInert: the zero Offloads value must not change a
// measurement — the committed experiment outputs were produced without
// the knob existing.
func TestOffloadOffIsInert(t *testing.T) {
	base := Measure(fastsocketSpec(), WebBench, 4, small())
	o := small()
	o.Offloads = Offloads{}
	again := Measure(fastsocketSpec(), WebBench, 4, o)
	if digestOf(base) != digestOf(again) {
		t.Fatalf("zero offloads changed the measurement: %#x vs %#x", digestOf(base), digestOf(again))
	}
}

// bulkFaultPlan is tuned for short windows: drop rates low enough
// that closed-loop connections keep cycling, windows long enough
// (>200ms InitialRTO) that stalled transfers recover inside the run.
func bulkFaultPlan() *fault.Plan {
	return &fault.Plan{
		C2S: fault.LinkFaults{Drop: 0.002, Dup: 0.001},
		S2C: fault.LinkFaults{Drop: 0.002, Corrupt: 0.001},
	}
}

// TestOffloadBulkSurvivesFaults: the bulk bed with every offload on
// completes transfers under an armed fault plane (retransmitted TSO
// supers partially overlap delivered data; the offset-based receive
// paths must absorb that).
func TestOffloadBulkSurvivesFaults(t *testing.T) {
	o := bulkOpts()
	o.Warmup, o.Window = 150*sim.Millisecond, 150*sim.Millisecond
	o.Offloads = AllOffloads()
	o.Fault = bulkFaultPlan()
	m := Measure(fastsocketSpec(), WebBench, 4, o)
	if m.Throughput <= 0 {
		t.Fatalf("no bulk transfers completed under faults")
	}
	if m.SNMP.RetransSegs == 0 {
		t.Error("no retransmissions under the drop plane; the recovery path is untested")
	}
	if m.SNMP.TSOSuperSegs == 0 || m.SNMP.GROMergedSegs == 0 {
		t.Error("offload counters vacuous under faults")
	}
}

// TestShardDigestOffload: the offload hot paths (TSO wire split, GRO
// ring merge, coalescing timers) must be bit-identical between the
// serial shard reference and multi-worker shard runs. The name rides
// the shardgate -race grep.
func TestShardDigestOffload(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault *fault.Plan
	}{
		{"clean", nil},
		{"faults", bulkFaultPlan()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(shards int) Options {
				o := bulkOpts()
				if tc.fault != nil {
					// Past the 200ms InitialRTO so fault recovery and
					// TSO-retransmit overlap land inside the window.
					o.Warmup, o.Window = 150*sim.Millisecond, 150*sim.Millisecond
				}
				o.Shards = shards
				o.Offloads = AllOffloads()
				o.Fault = tc.fault
				return o
			}
			ref := Measure(fastsocketSpec(), WebBench, 4, mk(1))
			if ref.MailPosted == 0 {
				t.Fatal("no cross-shard mailbox traffic; the equality is vacuous")
			}
			if ref.SNMP.TSOSuperSegs == 0 || ref.SNMP.GROMergedSegs == 0 {
				t.Fatal("offload counters vacuous in the sharded bulk run")
			}
			for _, shards := range []int{2, 4} {
				if got := Measure(fastsocketSpec(), WebBench, 4, mk(shards)); digestOf(got) != digestOf(ref) {
					t.Errorf("Shards=%d diverged from serial reference: %#x vs %#x\nref: %+v\ngot: %+v",
						shards, digestOf(got), digestOf(ref), ref, got)
				}
			}
		})
	}
}
