package sweep_test

// Run with -race (CI does): these tests assert both data-race freedom
// of the worker pool and the package's core promise — a parallel
// sweep is byte-identical to a serial one.

import (
	"reflect"
	"testing"

	"fastsocket/internal/app"
	"fastsocket/internal/experiment"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/sweep"
)

func smallOpts() experiment.Options {
	return experiment.Options{
		Warmup:             10 * sim.Millisecond,
		Window:             10 * sim.Millisecond,
		ConcurrencyPerCore: 50,
	}
}

// TestParallelMeasureMatchesSerial measures each of the three stock
// kernel profiles serially and on a 4-worker pool and requires every
// field of every Measurement to be exactly equal (floats, counters,
// lock maps — nothing is allowed to drift).
func TestParallelMeasureMatchesSerial(t *testing.T) {
	specs := experiment.StockKernels()
	o := smallOpts()
	serial := make([]experiment.Measurement, len(specs))
	for i, spec := range specs {
		serial[i] = experiment.Measure(spec, experiment.WebBench, 4, o)
	}
	parallel := sweep.Map(4, len(specs), func(i int) experiment.Measurement {
		return experiment.Measure(specs[i], experiment.WebBench, 4, o)
	})
	for i, spec := range specs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: parallel measurement differs from serial:\nserial:   %+v\nparallel: %+v",
				spec.Label, serial[i], parallel[i])
		}
	}
}

// TestParallelFigure4MatchesSerial runs the whole Figure 4a sweep
// both ways through the Runner plumbing and compares the rendered
// output byte for byte.
func TestParallelFigure4MatchesSerial(t *testing.T) {
	cores := []int{1, 4}

	o := smallOpts()
	serial := experiment.Figure4(experiment.WebBench, cores, o)

	o = smallOpts()
	o.Runner = sweep.Parallel{Workers: 4}
	parallel := experiment.Figure4(experiment.WebBench, cores, o)

	if s, p := serial.Format(), parallel.Format(); s != p {
		t.Errorf("parallel Figure4 output differs from serial:\n--- serial\n%s--- parallel\n%s", s, p)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel Figure4 result structure differs from serial")
	}
}

// TestRunExecutesAllJobsOnce hammers the worker pool with many tiny
// jobs: every index must run exactly once (the race detector guards
// the counter handoff).
func TestRunExecutesAllJobsOnce(t *testing.T) {
	const n = 10_000
	counts := make([]int, n)
	sweep.Parallel{Workers: 8}.Run(n, func(i int) { counts[i]++ })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("job %d ran %d times, want exactly once", i, c)
		}
	}
}

// TestMapOrdering checks results land at their own index regardless
// of completion order.
func TestMapOrdering(t *testing.T) {
	got := sweep.Map(4, 1000, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestSerialFallback covers the single-worker path.
func TestSerialFallback(t *testing.T) {
	var order []int
	sweep.Parallel{Workers: 1}.Run(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker order[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestParallelLossSweepMatchesSerial runs the fault-injection loss
// sweep serially and on a 4-worker pool: per-flow-seeded fault
// decisions must keep every cell — goodput, tail latency and SNMP
// error counters — bit-identical regardless of dispatch.
func TestParallelLossSweepMatchesSerial(t *testing.T) {
	cores := []int{2}
	rates := []float64{0, 0.01, 0.03}

	serial := experiment.LossSweep(cores, rates, smallOpts())

	o := smallOpts()
	o.Runner = sweep.Parallel{Workers: 4}
	parallel := experiment.LossSweep(cores, rates, o)

	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel loss sweep differs from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
	if s, p := serial.Format(), parallel.Format(); s != p {
		t.Errorf("rendered loss sweep differs:\n--- serial\n%s--- parallel\n%s", s, p)
	}
}

// poolDigest is everything the pooled data path can influence: the
// simulated outcome plus the skb- and TCB-pool traffic counters.
type poolDigest struct {
	Conns                        uint64
	Events                       uint64
	PktGets, PktNews, PktPuts    uint64
	SockGets, SockNews, SockPuts uint64
}

// runPooledBench runs one stock kernel's web bench and digests the
// outcome together with the pool counters.
func runPooledBench(spec experiment.KernelSpec) poolDigest {
	const cores = 4
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	loop := eng.AddDomain("bed")
	port := app.NewShardedNetwork(eng, 20*sim.Microsecond).Port(0)
	k := kernel.New(loop, kernel.Config{
		Name:  spec.Label,
		Cores: cores,
		Mode:  spec.Mode,
		Feat:  spec.Feat,
		Seed:  1,
	})
	port.AttachKernel(k)
	srv := app.NewWebServer(k, app.WebServerConfig{})
	srv.Start()
	cli := app.NewHTTPLoad(loop, port, app.HTTPLoadConfig{
		Targets:     []netproto.Addr{{IP: k.IPs()[0], Port: 80}},
		Concurrency: 50 * cores,
		Seed:        100,
	})
	cli.Start()
	loop.RunUntil(20 * sim.Millisecond)

	pp, sp := k.PacketPool(), k.TCBPool()
	return poolDigest{
		Conns:   cli.Completed,
		Events:  loop.Fired(),
		PktGets: pp.Gets, PktNews: pp.News, PktPuts: pp.Puts,
		SockGets: sp.Gets, SockNews: sp.News, SockPuts: sp.Puts,
	}
}

// TestParallelPooledDigestMatchesSerial pins the segment/TCB pooling
// behavior under the sweep runner: each stock kernel's web bench runs
// serially and on a 4-worker pool, and the digests — connection and
// event counts plus every pool counter — must be bit-identical. It
// also requires the pools to be genuinely hot (recycling, not just
// allocating), so the equality is evidence about the pooled
// configuration and not a vacuous pass. Run under -race (CI does):
// pools belong to one loop each and must never be shared across
// workers.
func TestParallelPooledDigestMatchesSerial(t *testing.T) {
	specs := experiment.StockKernels()
	serial := make([]poolDigest, len(specs))
	for i, spec := range specs {
		serial[i] = runPooledBench(spec)
	}
	parallel := sweep.Map(4, len(specs), func(i int) poolDigest {
		return runPooledBench(specs[i])
	})
	for i, spec := range specs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: pooled digest differs:\nserial:   %+v\nparallel: %+v",
				spec.Label, serial[i], parallel[i])
		}
		d := serial[i]
		if d.PktNews >= d.PktGets || d.PktPuts == 0 {
			t.Errorf("%s: packet pool not recycling (gets=%d news=%d puts=%d)",
				spec.Label, d.PktGets, d.PktNews, d.PktPuts)
		}
		if d.SockNews >= d.SockGets || d.SockPuts == 0 {
			t.Errorf("%s: sock pool not recycling (gets=%d news=%d puts=%d)",
				spec.Label, d.SockGets, d.SockNews, d.SockPuts)
		}
	}
}

// TestParallelOverloadMatchesSerial dispatches the two overload ramps
// (cookies off/on) on parallel workers and requires byte-identical
// results — the ramps each own a fault-capable kernel and an open-loop
// client, so this covers the heaviest composite simulation.
func TestParallelOverloadMatchesSerial(t *testing.T) {
	serial := experiment.Overload(smallOpts())

	o := smallOpts()
	o.Runner = sweep.Parallel{Workers: 2}
	parallel := experiment.Overload(o)

	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel overload differs from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestBudget(t *testing.T) {
	cases := []struct{ host, perJob, want int }{
		{16, 4, 4},  // 4 sweep workers x 4 shard workers fill the host
		{16, 0, 16}, // no inner parallelism: all workers to the sweep
		{16, 1, 16},
		{4, 8, 1}, // inner layer alone saturates the host
		{8, 3, 2}, // round down, never oversubscribe via the sweep
		{1, 4, 1}, // always at least one outer worker
		{0, 0, 1}, // hostWorkers<=perJob floor
	}
	for _, c := range cases {
		if got := sweep.Budget(c.host, c.perJob); got != c.want {
			t.Errorf("Budget(%d, %d) = %d, want %d", c.host, c.perJob, got, c.want)
		}
	}
}
