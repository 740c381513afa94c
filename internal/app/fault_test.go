package app

import (
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/sim"
)

// newFaultBed boots a one-listener Fastsocket web server with the
// given fault plan and a loss-tolerant client that opens connections
// only when the test says so (Concurrency 0, open() called directly).
func newFaultBed(t *testing.T, plan *fault.Plan) (*testbed, *WebServer) {
	t.Helper()
	loop, net, port := oneDomain(20 * sim.Microsecond)
	k := kernel.New(loop, kernel.Config{
		Cores: 1,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		Seed:  11,
		Fault: plan,
	})
	port.AttachKernel(k)
	srv := NewWebServer(k, WebServerConfig{})
	srv.Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{
		Targets:    serverTargets(k, 80),
		Retransmit: true,
		// Slower than the server's 200ms InitialRTO, so a lost SYN-ACK
		// is repaired by the server's retransmission, not a client SYN
		// retry.
		RTO: 300 * sim.Millisecond,
	})
	return &testbed{loop: loop, net: net, k: k, client: cli}, srv
}

// TestRetransmitAccounting drops exactly one server->client segment
// (the SYN-ACK) and checks the books balance: the socket retransmits
// once, the kernel's SNMP RetransSegs agrees, and the wire was charged
// exactly one extra transmission compared to a clean run — a dropped
// segment is never double-charged to TX.
func TestRetransmitAccounting(t *testing.T) {
	run := func(plan *fault.Plan) (*testbed, kernel.Stats) {
		tb, _ := newFaultBed(t, plan)
		tb.client.open()
		tb.loop.RunUntil(600 * sim.Millisecond)
		return tb, tb.k.Stats()
	}

	clean, cleanStats := run(nil)
	if clean.client.Completed != 1 {
		t.Fatalf("clean run completed %d connections, want 1", clean.client.Completed)
	}
	if cleanStats.RetransSegs != 0 {
		t.Fatalf("clean run counted %d retransmissions", cleanStats.RetransSegs)
	}

	faulty, faultyStats := run(&fault.Plan{S2C: fault.LinkFaults{DropFirst: 1}})
	if faulty.client.Completed != 1 || faulty.client.Errors != 0 {
		t.Fatalf("faulty run: completed=%d errors=%d, want 1/0",
			faulty.client.Completed, faulty.client.Errors)
	}
	if faulty.k.Faults() == nil {
		t.Fatal("fault engine not attached")
	}
	if got := faulty.net.FaultStats().LinkDrops; got != 1 {
		t.Fatalf("LinkDrops = %d, want 1", got)
	}
	if faultyStats.RetransSegs != 1 {
		t.Fatalf("kernel RetransSegs = %d, want 1", faultyStats.RetransSegs)
	}
	if snmp := faulty.k.SNMP(); snmp.RetransSegs != 1 {
		t.Fatalf("SNMP RetransSegs = %d, want 1", snmp.RetransSegs)
	}
	// The drop happens on the wire, after the TX path charged the
	// segment; the retransmission is the only extra transmission.
	if faultyStats.PacketsOut != cleanStats.PacketsOut+1 {
		t.Fatalf("PacketsOut = %d, want clean %d + 1 (TX charged exactly once per wire packet)",
			faultyStats.PacketsOut, cleanStats.PacketsOut)
	}
	// Connection latency reflects the ~200ms repair (the histogram's
	// bucket boundaries report slightly under the exact value).
	if p99 := faulty.client.ConnLatencies.Percentile(99); p99 < 150*sim.Millisecond {
		t.Fatalf("faulty conn latency p99 = %v, want >= 150ms", p99)
	}
}

// TestAllocFailureUnwind runs a burst of connections under
// memory-pressure mode and checks every failure path unwinds fully:
// no leaked VFS inodes, no leaked TCBs, and the event loop drains to
// empty (no orphaned timers).
func TestAllocFailureUnwind(t *testing.T) {
	tb, _ := newFaultBed(t, &fault.Plan{AllocFail: 0.05})
	live0 := tb.k.VFS().Stats().Live
	if live0 == 0 {
		t.Fatal("no boot listeners registered (alloc-failed at boot; pick another seed)")
	}

	const conns = 200
	for i := 0; i < conns; i++ {
		tb.loop.After(sim.Time(i)*50*sim.Microsecond, tb.client.open)
	}
	tb.loop.Run() // to exhaustion: all retries, aborts and 2MSL timers drain

	if got := tb.client.Completed + tb.client.Errors; got != conns {
		t.Fatalf("accounted connections = %d, want %d", got, conns)
	}
	if tb.k.Stats().AllocFails == 0 {
		t.Fatal("memory-pressure plan never fired; test is vacuous")
	}
	if tb.client.Errors == 0 {
		t.Fatal("no client saw an allocation-induced failure")
	}
	if live := tb.k.VFS().Stats().Live; live != live0 {
		t.Fatalf("leaked VFS inodes: live = %d, want %d (boot listeners only)", live, live0)
	}
	for state, n := range tb.k.SocketSummary() {
		if state != "LISTEN" && n != 0 {
			t.Errorf("leaked %d sockets in state %s", n, state)
		}
	}
	if p := tb.loop.Pending(); p != 0 {
		t.Fatalf("event loop did not drain: %d events pending", p)
	}
}

// TestZeroPlanIsInert: a non-nil but zero Plan must not attach an
// engine or change behaviour.
func TestZeroPlanIsInert(t *testing.T) {
	tb, _ := newFaultBed(t, &fault.Plan{})
	if tb.k.Faults() != nil {
		t.Fatal("zero plan attached a fault engine")
	}
	tb.client.open()
	tb.loop.RunUntil(10 * sim.Millisecond)
	if tb.client.Completed != 1 {
		t.Fatalf("completed %d, want 1", tb.client.Completed)
	}
}
