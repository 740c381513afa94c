package experiment

import (
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/sim"
)

// lifeOpts is the scaled-down harness for the lifecycle scenarios:
// large enough that the availability verdicts are meaningful (the
// retry clocks derive from the window), small enough for the suite.
func lifeOpts() Options {
	return Options{
		Warmup: 40 * sim.Millisecond,
		Window: 40 * sim.Millisecond,
		Seed:   1,
	}
}

// TestCrashRecoveryVerdicts pins the experiment's headline claims at
// suite scale: both scenarios recover to >=99% of the pre-event
// baseline, the graceful drain aborts strictly fewer in-flight
// connections than the hard crash, connections actually finish inside
// the drain grace period, and both hosts restart exactly once.
func TestCrashRecoveryVerdicts(t *testing.T) {
	res := CrashRecovery(lifeOpts())
	crash, drain := res.Runs[0], res.Runs[1]

	for _, run := range res.Runs {
		if run.BaselineCPS <= 0 {
			t.Fatalf("%s: zero baseline; the bed never reached steady state", run.Label)
		}
		if run.RecoveryTime < 0 {
			t.Errorf("%s: never recovered to >=%.0f%% of baseline", run.Label, 100*RecoveryAvailability)
		}
		if run.Restarts != 1 {
			t.Errorf("%s: restarts = %d, want 1", run.Label, run.Restarts)
		}
		if run.MinAvailability >= RecoveryAvailability {
			t.Errorf("%s: min availability %.2f shows no dip; the outage never bit", run.Label, run.MinAvailability)
		}
	}
	if drain.Aborted >= crash.Aborted {
		t.Errorf("drain aborted %d, crash aborted %d; the grace period saved nothing",
			drain.Aborted, crash.Aborted)
	}
	if drain.Drained == 0 {
		t.Error("drain run finished no connections inside the grace period")
	}
	if crash.DeadSegs == 0 {
		t.Error("crash run: no segment ever reached the dead host")
	}
}

// TestRollingRestartVerdicts pins the bounded-dip property: restarting
// the eight workers one at a time must never look like an outage, and
// the graceful flavour must abort strictly fewer connections.
func TestRollingRestartVerdicts(t *testing.T) {
	res := RollingRestart(lifeOpts())
	drain, crash := res.Runs[0], res.Runs[1]

	for _, run := range res.Runs {
		if run.RecoveryTime < 0 {
			t.Errorf("%s: never recovered to >=%.0f%% of baseline", run.Label, 100*RecoveryAvailability)
		}
		if run.Restarts != 8 {
			t.Errorf("%s: restarts = %d, want 8 (one per worker)", run.Label, run.Restarts)
		}
		// 1/8 of the capacity is out at any moment; the dip must stay
		// far from a whole-host outage.
		if run.MinAvailability < 0.5 {
			t.Errorf("%s: min availability %.2f; a rolling restart must not look like an outage",
				run.Label, run.MinAvailability)
		}
	}
	if drain.Aborted >= crash.Aborted {
		t.Errorf("rolling-drain aborted %d, rolling-crash aborted %d; the grace period saved nothing",
			drain.Aborted, crash.Aborted)
	}
	if drain.Drained == 0 {
		t.Error("rolling-drain finished no connections inside the grace periods")
	}
}

// TestLifecycleDeterminism: two identical runs of each lifecycle
// experiment must agree bit-for-bit — the plane adds no hidden
// nondeterminism (map iteration, shared PRNG streams) anywhere.
func TestLifecycleDeterminism(t *testing.T) {
	o := lifeOpts()
	o.Window = 20 * sim.Millisecond
	o.Warmup = 20 * sim.Millisecond
	if a, b := digestAny(CrashRecovery(o)), digestAny(CrashRecovery(o)); a != b {
		t.Errorf("CrashRecovery diverged across identical runs: %#x vs %#x", a, b)
	}
	if a, b := digestAny(RollingRestart(o)), digestAny(RollingRestart(o)); a != b {
		t.Errorf("RollingRestart diverged across identical runs: %#x vs %#x", a, b)
	}
}

// TestLifecycleZeroPlanInert: a fault plan carrying only a zero-valued
// LifecyclePlan must be byte-identical to no plan at all — the
// lifecycle plane costs nothing when unarmed.
func TestLifecycleZeroPlanInert(t *testing.T) {
	spec := StockKernels()[2]
	ref := Measure(spec, WebBench, 4, small())
	o := small()
	o.Fault = &fault.Plan{Lifecycle: fault.LifecyclePlan{}}
	got := Measure(spec, WebBench, 4, o)
	if digestOf(got) != digestOf(ref) {
		t.Errorf("zero LifecyclePlan changed the measurement: %#x vs %#x\nref: %+v\ngot: %+v",
			digestOf(ref), digestOf(got), ref, got)
	}
}

// TestShardDigestLifecycle covers the lifecycle experiments on the
// conservative-lookahead engine: sweeps, restarts and the client retry
// plane must shard exactly. Picked up by `make shardgate` (-race).
func TestShardDigestLifecycle(t *testing.T) {
	o := shardOpts(1)
	oN := o
	oN.Shards = 4
	ref := digestAny(CrashRecovery(o))
	if got := digestAny(CrashRecovery(oN)); got != ref {
		t.Errorf("CrashRecovery sharded != serial: %#x vs %#x", got, ref)
	}
	ref = digestAny(RollingRestart(o))
	if got := digestAny(RollingRestart(oN)); got != ref {
		t.Errorf("RollingRestart sharded != serial: %#x vs %#x", got, ref)
	}
}
