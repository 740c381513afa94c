package app

import (
	"fmt"
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/sim"
)

// newLifeBed boots a one-core Fastsocket web server with a lifecycle
// plan and a client running the full retry plane (timeouts, capped
// backoff, retry budget) at millisecond clocks so the scenarios stay
// fast.
func newLifeBed(t *testing.T, plan *fault.Plan, concurrency int) *testbed {
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
	NewWebServer(k, WebServerConfig{}).Start()
	cli := NewHTTPLoad(loop, port, HTTPLoadConfig{
		Targets:     serverTargets(k, 80),
		Concurrency: concurrency,
		Retransmit:  true,
		RTO:         sim.Millisecond,
		MaxSYNRetry: 2,
		BackoffCap:  8 * sim.Millisecond,
		RetryBudget: 4,
	})
	return &testbed{loop: loop, net: net, k: k, client: cli}
}

// TestLifecycleRSTMidRequest drains the host while a request is in
// flight with a zero grace period: the sweep RSTs the connection
// mid-request, and the client's retry budget answers with a fresh
// connection once the host re-listens — the request completes, no
// user-visible error.
func TestLifecycleRSTMidRequest(t *testing.T) {
	plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{Events: []fault.LifecycleEvent{
		// At 50us the handshake is done but the request/response
		// exchange is not: the sweep catches a live connection.
		{At: 50 * sim.Microsecond, Action: fault.HostDrain, RestartAfter: 200 * sim.Microsecond},
	}}}
	tb := newLifeBed(t, plan, 0)
	tb.client.open()
	tb.loop.RunUntil(50 * sim.Millisecond)

	if tb.client.Completed != 1 || tb.client.Errors != 0 {
		t.Fatalf("completed=%d errors=%d, want 1/0 (retry budget should absorb the RST)",
			tb.client.Completed, tb.client.Errors)
	}
	if tb.client.Retries == 0 {
		t.Fatal("no retry recorded; the drain sweep never hit the in-flight request")
	}
	st := tb.k.Stats()
	if st.AbortedOnDrain == 0 {
		t.Fatal("AbortedOnDrain = 0; the zero-deadline sweep aborted nothing")
	}
	if st.HostRestarts != 1 {
		t.Fatalf("HostRestarts = %d, want 1", st.HostRestarts)
	}
}

// TestLifecycleDeadHostPolicies crashes the host with a request in
// flight and a second connection attempt arriving while it is down,
// under both dead-host answer policies. Silent: the SYN is dropped on
// the floor and the client discovers the outage only through SYN-retry
// exhaustion (ETIMEDOUT). RST: the dead host refuses fast, so no
// establishment attempt ever times out. Both recover through the
// retry budget once the host restarts.
func TestLifecycleDeadHostPolicies(t *testing.T) {
	run := func(dead fault.DeadPolicy) *testbed {
		plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{
			Events: []fault.LifecycleEvent{
				{At: 50 * sim.Microsecond, Action: fault.HostCrash, RestartAfter: 5 * sim.Millisecond},
			},
			Dead: dead,
		}}
		tb := newLifeBed(t, plan, 0)
		tb.client.open()                                   // established before the crash; request dies with the host
		tb.loop.After(100*sim.Microsecond, tb.client.open) // SYN into the dead host
		tb.loop.RunUntil(100 * sim.Millisecond)
		if tb.client.Completed != 2 || tb.client.Errors != 0 {
			t.Fatalf("dead=%v: completed=%d errors=%d, want 2/0", dead,
				tb.client.Completed, tb.client.Errors)
		}
		if st := tb.k.Stats(); st.DeadSegs == 0 {
			t.Fatalf("dead=%v: DeadSegs = 0; nothing reached the crashed host", dead)
		}
		return tb
	}

	silent := run(fault.DeadSilent)
	if silent.client.ConnTimeouts == 0 {
		t.Fatal("DeadSilent: ConnTimeouts = 0, want an ETIMEDOUT from the swallowed SYN")
	}
	rst := run(fault.DeadRST)
	if rst.client.ConnTimeouts != 0 {
		t.Fatalf("DeadRST: ConnTimeouts = %d, want 0 (refused fast, never timed out)",
			rst.client.ConnTimeouts)
	}
	if rst.client.Retries == 0 {
		t.Fatal("DeadRST: no retries recorded; the RST answers never reached the client")
	}
}

// TestLifecycleDrainDeadline drains a host under steady closed-loop
// load with a grace period shorter than the time to finish everything:
// connections near completion finish normally (DrainedConns), the
// stragglers are swept at the deadline (AbortedOnDrain), and goodput
// resumes after the restart.
func TestLifecycleDrainDeadline(t *testing.T) {
	plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{Events: []fault.LifecycleEvent{
		{At: 2 * sim.Millisecond, Action: fault.HostDrain,
			Deadline: 100 * sim.Microsecond, RestartAfter: 500 * sim.Microsecond},
	}}}
	tb := newLifeBed(t, plan, 20)
	tb.client.Start()
	tb.loop.RunUntil(2 * sim.Millisecond)
	preDrain := tb.client.Completed
	tb.loop.RunUntil(30 * sim.Millisecond)

	st := tb.k.Stats()
	if st.DrainedConns == 0 {
		t.Fatal("DrainedConns = 0; no in-flight connection finished inside the grace period")
	}
	if st.AbortedOnDrain == 0 {
		t.Fatal("AbortedOnDrain = 0; the deadline sweep found nothing in flight")
	}
	if st.HostRestarts != 1 {
		t.Fatalf("HostRestarts = %d, want 1", st.HostRestarts)
	}
	if tb.client.Completed <= preDrain {
		t.Fatalf("no goodput after restart: completed %d then %d", preDrain, tb.client.Completed)
	}
}

// TestLifecycleRestartRelisten kills the host hard and checks the cold
// restart actually re-listens: fresh SYNs complete end-to-end after
// the outage, and the boot listeners are back in the socket table.
func TestLifecycleRestartRelisten(t *testing.T) {
	plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{Events: []fault.LifecycleEvent{
		{At: sim.Millisecond, Action: fault.HostCrash, RestartAfter: sim.Millisecond},
	}}}
	tb := newLifeBed(t, plan, 5)
	tb.client.Start()
	tb.loop.RunUntil(sim.Millisecond)
	preCrash := tb.client.Completed
	if preCrash == 0 {
		t.Fatal("no goodput before the crash; the scenario is vacuous")
	}
	tb.loop.RunUntil(50 * sim.Millisecond)

	st := tb.k.Stats()
	if st.CrashAborts == 0 {
		t.Fatal("CrashAborts = 0; the crash found no live connections")
	}
	if st.HostRestarts != 1 {
		t.Fatalf("HostRestarts = %d, want 1", st.HostRestarts)
	}
	if tb.client.Completed <= preCrash {
		t.Fatalf("no goodput after re-listen: completed %d then %d", preCrash, tb.client.Completed)
	}
	if n := tb.k.SocketSummary()["LISTEN"]; n == 0 {
		t.Fatal("no LISTEN sockets after restart; the boot listeners were not re-registered")
	}
}

// TestLifecycleDeterministic runs the drain-deadline scenario twice
// and requires identical client and kernel accounting: the whole
// lifecycle plane — sweeps, restarts, backoff jitter, retry budgets —
// must be a pure function of the seed.
func TestLifecycleDeterministic(t *testing.T) {
	run := func() string {
		plan := &fault.Plan{Lifecycle: fault.LifecyclePlan{Events: []fault.LifecycleEvent{
			{At: 2 * sim.Millisecond, Action: fault.HostDrain,
				Deadline: 100 * sim.Microsecond, RestartAfter: 500 * sim.Microsecond},
		}}}
		tb := newLifeBed(t, plan, 20)
		tb.client.Start()
		tb.loop.RunUntil(30 * sim.Millisecond)
		return fmt.Sprintf("completed=%d errors=%d retries=%d timeouts=%d stats=%+v",
			tb.client.Completed, tb.client.Errors, tb.client.Retries,
			tb.client.ConnTimeouts, tb.k.Stats())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical lifecycle runs diverged:\n%s\n%s", a, b)
	}
}
