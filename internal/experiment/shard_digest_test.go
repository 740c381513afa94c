package experiment

import (
	"fmt"
	"hash/fnv"
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/sim"
)

// The sharded digest-equality suite: every committed experiment must
// produce bit-identical results on the conservative-lookahead engine
// regardless of worker count — Shards=1 is the serial reference, and
// any Shards>1 run must match it exactly. Run under -race (make
// shardgate) this also proves the barrier protocol publishes every
// cross-domain effect correctly.

// digestAny folds any experiment result into one FNV-1a digest via
// its printed representation (fmt sorts map keys, so the rendering is
// deterministic).
func digestAny(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return h.Sum64()
}

// shardOpts returns the small harness options at a given shard count.
func shardOpts(shards int) Options {
	o := small()
	o.Shards = shards
	return o
}

// TestShardDigestMeasure pins Measure itself — web and proxy benches,
// with and without an armed fault plane — and asserts the mailbox
// traffic is non-vacuous: the equality below means nothing if the
// domains never exchange mail.
func TestShardDigestMeasure(t *testing.T) {
	plan := &fault.Plan{
		C2S: fault.LinkFaults{Drop: 0.02, Dup: 0.01, Reorder: 0.01},
		S2C: fault.LinkFaults{Drop: 0.02, Corrupt: 0.005},
	}
	cases := []struct {
		name  string
		bench Bench
		fault *fault.Plan
	}{
		{"web", WebBench, nil},
		{"proxy", ProxyBench, nil},
		{"web-faults", WebBench, plan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := StockKernels()[2] // fastsocket exercises every steering path
			o1 := shardOpts(1)
			o1.Fault = tc.fault
			ref := Measure(spec, tc.bench, 4, o1)
			if ref.MailPosted == 0 {
				t.Fatal("no cross-shard mailbox traffic; the equality is vacuous")
			}
			if ref.Throughput <= 0 {
				t.Fatal("implausible zero throughput")
			}
			for _, shards := range []int{2, 4} {
				oN := shardOpts(shards)
				oN.Fault = tc.fault
				got := Measure(spec, tc.bench, 4, oN)
				if digestOf(got) != digestOf(ref) {
					t.Errorf("Shards=%d diverged from serial reference: %#x vs %#x\nref: %+v\ngot: %+v",
						shards, digestOf(got), digestOf(ref), ref, got)
				}
				if got.MailPosted != ref.MailPosted {
					t.Errorf("Shards=%d mail %d, serial reference %d", shards, got.MailPosted, ref.MailPosted)
				}
			}
		})
	}
}

// TestShardDigestFigure4 covers the throughput-scaling grid.
func TestShardDigestFigure4(t *testing.T) {
	cores := []int{1, 4}
	ref := digestAny(Figure4(WebBench, cores, shardOpts(1)))
	got := digestAny(Figure4(WebBench, cores, shardOpts(4)))
	if got != ref {
		t.Errorf("figure4 sharded != serial: %#x vs %#x", got, ref)
	}
}

// TestShardDigestFigure5 covers the NIC-delivery/RFD locality grid
// (proxy bench: three domains, backend traffic crosses shards too).
func TestShardDigestFigure5(t *testing.T) {
	o := shardOpts(1)
	o.ConcurrencyPerCore = 25 // 16 fixed cores; keep the grid quick
	ref := digestAny(Figure5(o))
	oN := shardOpts(4)
	oN.ConcurrencyPerCore = 25
	got := digestAny(Figure5(oN))
	if got != ref {
		t.Errorf("figure5 sharded != serial: %#x vs %#x", got, ref)
	}
}

// TestShardDigestTable1 covers the lockstat columns (24-core proxy).
func TestShardDigestTable1(t *testing.T) {
	o := shardOpts(1)
	o.ConcurrencyPerCore = 25
	ref := digestAny(Table1(o))
	oN := shardOpts(4)
	oN.ConcurrencyPerCore = 25
	got := digestAny(Table1(oN))
	if got != ref {
		t.Errorf("table1 sharded != serial: %#x vs %#x", got, ref)
	}
}

// TestShardDigestLossSweep covers the fault-plane sweep: per-sender
// fault views must reproduce the serial engine's per-flow decisions.
func TestShardDigestLossSweep(t *testing.T) {
	cores := []int{4}
	rates := []float64{0, 0.02}
	ref := digestAny(LossSweep(cores, rates, shardOpts(1)))
	got := digestAny(LossSweep(cores, rates, shardOpts(2)))
	if got != ref {
		t.Errorf("losssweep sharded != serial: %#x vs %#x", got, ref)
	}
}

// TestShardDigestOverload covers the SYN-flood ramp: three domains
// (server, open-loop client, attacker), stateful steps with reads at
// barriers, syncookies on and off.
func TestShardDigestOverload(t *testing.T) {
	short := func(shards int) Options {
		o := shardOpts(shards)
		o.Warmup = 5 * sim.Millisecond
		o.Window = 5 * sim.Millisecond
		return o
	}
	ref := digestAny(Overload(short(1)))
	got := digestAny(Overload(short(4)))
	if got != ref {
		t.Errorf("overload sharded != serial: %#x vs %#x", got, ref)
	}
}
