package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"fastsocket/internal/kernel"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
)

// shape is the run shape of one workload: every trial builds a fresh
// bed, warms it up, then times `windows` equal simulated windows.
type shape struct {
	warmup, window sim.Time
	windows        int
	minTrials      int
	// budget is the host wall time after which no further trial starts
	// (once minTrials are done).
	budget time.Duration
}

// defaultShape is the benchmark's shape. 50 ms of simulated warm-up
// brings the closed loop to steady state at 300 connections per core;
// 25 ms windows hold a few thousand requests each.
func defaultShape(seconds float64) shape {
	return shape{
		warmup:    50 * sim.Millisecond,
		window:    25 * sim.Millisecond,
		windows:   8,
		minTrials: 3,
		budget:    time.Duration(seconds * float64(time.Second)),
	}
}

// measured is the simulated time one trial times.
func (s shape) measured() sim.Time { return s.window * sim.Time(s.windows) }

type options struct {
	seed  uint64
	shape shape
	trace bool
	// mutate, when set, edits each freshly built bed before its warm-up;
	// tests use it to make one trial's simulated outcome diverge.
	mutate func(trial int, b *bed)
}

// trial is what one bed yields.
type trial struct {
	idx    int
	tracer *tracer       // nil for an untraced trial
	setup  time.Duration // bed construction plus simulated warm-up
	wall   time.Duration // sum of the timed windows
	rates  []float64     // per window: simulated requests per wall second
	// Go runtime activity over the windows.
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
	heap            uint64 // bytes of heap the live bed holds
	delta           counters
	ringMax         int
	hist            stats.Histogram // client latency over the windows
	digest          string
	err             error // a broken conservation check
}

// runTrial builds one bed and measures it.
func runTrial(w workload, o options, idx int, traced bool) trial {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	b := buildBed(w, o.seed, tr)
	if o.mutate != nil {
		o.mutate(idx, b)
	}
	b.client.Start()
	b.eng.Run(o.shape.warmup)
	res := trial{idx: idx, tracer: tr, setup: time.Since(start)}

	before := snapshot(b)
	b.client.Latencies.Reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, total0 := readGCCPU()
	if tr != nil {
		tr.reset()
	}
	end := o.shape.warmup
	for i := 0; i < o.shape.windows; i++ {
		c0 := b.client.Completed
		end += o.shape.window
		ws := time.Now()
		b.eng.Run(end)
		dt := time.Since(ws)
		res.wall += dt
		res.rates = append(res.rates, float64(b.client.Completed-c0)/dt.Seconds())
	}
	gc1, total1 := readGCCPU()
	runtime.ReadMemStats(&m1)
	after := snapshot(b)

	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCPU, res.totalCPU = gc1-gc0, total1-total0
	res.delta = after.sub(before)
	res.ringMax = b.k.NIC().Stats().RXRingMax
	res.hist = *b.client.Latencies
	res.digest = digestOf(b, res.delta.completed, &res.hist)
	// Every completed response was served, and every served request
	// not yet completed belongs to a connection still in flight.
	done, served, inflight := b.client.Completed, b.served(), uint64(b.client.InFlight())
	if done > served || done+inflight < served {
		res.err = fmt.Errorf("trial %d: client completed %d outside [served-inflight, served] = [%d, %d]",
			idx, done, served-min(served, inflight), served)
	}
	// The bed's live heap: what a collection frees once the bed is
	// dropped. The difference excludes the results this process keeps
	// across trials, whose size grows with the trial count.
	runtime.GC()
	var alive, dropped runtime.MemStats
	runtime.ReadMemStats(&alive)
	b.eng.Close()
	runtime.KeepAlive(b)
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	res.heap = alive.HeapAlloc - min(alive.HeapAlloc, dropped.HeapAlloc)
	return res
}

// digestOf hashes a trial's simulated outcome: completions, errors, the
// window's latency histogram, events fired and the SNMP block.
func digestOf(b *bed, completed uint64, h *stats.Histogram) string {
	d := fnv.New64a()
	fmt.Fprintf(d, "completed=%d errors=%d served=%d events=%d\n",
		completed, b.client.Errors, b.served(), b.eng.Fired())
	fmt.Fprintf(d, "hist n=%d mean=%d min=%d max=%d p:", h.Count(), h.Mean(), h.Min(), h.Max())
	for p := 1; p <= 100; p++ {
		fmt.Fprintf(d, " %d", h.Percentile(float64(p)))
	}
	fmt.Fprintf(d, " %d\nsnmp %+v\n", h.Percentile(99.9), b.k.SNMP())
	return fmt.Sprintf("%016x", d.Sum64())
}

// readGCCPU returns the runtime's estimate of GC CPU time and of all
// CPU time available to Go, in seconds.
func readGCCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// counters is a snapshot of the deterministic work counters the layers
// export through their public Stats accessors.
type counters struct {
	completed, errors                        uint64
	events, scheduled, cancelled             uint64
	mail, epochs                             uint64
	works                                    uint64
	busy                                     []sim.Time // per core
	busyTotal, spin                          sim.Time
	pktsIn, napiPolls                        uint64
	accepts, acceptEmpty                     uint64
	softSteers, activeIn, activeLocal        uint64
	txPkts                                   uint64
	estLookups, estScanned                   uint64
	listenLookups, listenScanned             uint64
	notifies, waits, delivered               uint64
	vfsAllocs                                uint64
	poolGets, poolNews                       uint64
	lockWait                                 []sim.Time // kernel.LockNames order
	lockAcq, lockContended                   uint64
	cacheAccesses, cacheMisses, cacheBounces uint64
}

func snapshot(b *bed) counters {
	k := b.k
	c := counters{
		completed: b.client.Completed,
		errors:    b.client.Errors,
		events:    b.eng.Fired(),
		mail:      b.eng.Stats().Posted,
		epochs:    b.eng.Stats().Epochs,
	}
	ss := b.eng.SchedStats()
	c.scheduled = ss.ScheduledHeap + ss.ScheduledWheel
	c.cancelled = ss.CancelledHeap + ss.CancelledWheel
	for _, core := range k.Machine().Cores() {
		c.works += core.Works()
		c.busy = append(c.busy, core.BusyTime())
		c.busyTotal += core.BusyTime()
		c.spin += core.SpinTime()
	}
	ks := k.Stats()
	c.pktsIn, c.napiPolls = ks.PacketsIn, ks.NAPIPolls
	c.accepts, c.acceptEmpty = ks.Accepts, ks.AcceptEmpty
	c.softSteers, c.activeIn, c.activeLocal = ks.SoftSteers, ks.ActiveIn, ks.ActiveLocal
	c.txPkts = k.NIC().Stats().TXPackets
	tb := k.Tables()
	est := tb.GlobalEst.Stats()
	c.estLookups, c.estScanned = est.Lookups, est.Scanned
	for _, t := range tb.LocalEst {
		s := t.Stats()
		c.estLookups += s.Lookups
		c.estScanned += s.Scanned
	}
	ls := tb.GlobalListen.Stats()
	c.listenLookups, c.listenScanned = ls.Lookups, ls.Scanned
	for _, t := range tb.LocalListen {
		s := t.Stats()
		c.listenLookups += s.Lookups
		c.listenScanned += s.Scanned
	}
	for _, p := range k.Procs() {
		s := p.Ep.Stats()
		c.notifies += s.Notifies
		c.waits += s.Waits
		c.delivered += s.Delivered
	}
	c.vfsAllocs = k.VFS().Stats().Allocs
	pool := k.PacketPool()
	c.poolGets, c.poolNews = pool.Gets, pool.News
	for _, row := range k.LockStats() {
		c.lockWait = append(c.lockWait, row.WaitTime)
		c.lockAcq += row.Acquisitions
		c.lockContended += row.Contended
	}
	cs := k.Cache().Stats()
	c.cacheAccesses, c.cacheMisses, c.cacheBounces = cs.Accesses, cs.Misses, cs.Bounces
	return c
}

// sub returns the counter deltas c - prev.
func (c counters) sub(prev counters) counters {
	d := counters{
		completed:     c.completed - prev.completed,
		errors:        c.errors - prev.errors,
		events:        c.events - prev.events,
		scheduled:     c.scheduled - prev.scheduled,
		cancelled:     c.cancelled - prev.cancelled,
		mail:          c.mail - prev.mail,
		epochs:        c.epochs - prev.epochs,
		works:         c.works - prev.works,
		busyTotal:     c.busyTotal - prev.busyTotal,
		spin:          c.spin - prev.spin,
		pktsIn:        c.pktsIn - prev.pktsIn,
		napiPolls:     c.napiPolls - prev.napiPolls,
		accepts:       c.accepts - prev.accepts,
		acceptEmpty:   c.acceptEmpty - prev.acceptEmpty,
		softSteers:    c.softSteers - prev.softSteers,
		activeIn:      c.activeIn - prev.activeIn,
		activeLocal:   c.activeLocal - prev.activeLocal,
		txPkts:        c.txPkts - prev.txPkts,
		estLookups:    c.estLookups - prev.estLookups,
		estScanned:    c.estScanned - prev.estScanned,
		listenLookups: c.listenLookups - prev.listenLookups,
		listenScanned: c.listenScanned - prev.listenScanned,
		notifies:      c.notifies - prev.notifies,
		waits:         c.waits - prev.waits,
		delivered:     c.delivered - prev.delivered,
		vfsAllocs:     c.vfsAllocs - prev.vfsAllocs,
		poolGets:      c.poolGets - prev.poolGets,
		poolNews:      c.poolNews - prev.poolNews,
		lockAcq:       c.lockAcq - prev.lockAcq,
		lockContended: c.lockContended - prev.lockContended,
		cacheAccesses: c.cacheAccesses - prev.cacheAccesses,
		cacheMisses:   c.cacheMisses - prev.cacheMisses,
		cacheBounces:  c.cacheBounces - prev.cacheBounces,
	}
	for i := range c.busy {
		d.busy = append(d.busy, c.busy[i]-prev.busy[i])
	}
	for i := range c.lockWait {
		d.lockWait = append(d.lockWait, c.lockWait[i]-prev.lockWait[i])
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (an idle counter, e.g. no active
// flows outside the proxy mix).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics derives the deterministic per-layer metrics from one
// trial's window deltas.
func countMetrics(d counters, ringMax int, windowSim sim.Time, m map[string]float64) {
	req := float64(d.completed)
	perReq := func(n uint64) float64 { return ratio(float64(n), req) }
	m["sim.events_per_req"] = perReq(d.events)
	m["sim.cancel_frac"] = ratio(float64(d.cancelled), float64(d.scheduled))
	m["shard.mail_per_req"] = perReq(d.mail)
	m["shard.epochs_per_req"] = perReq(d.epochs)
	m["cpu.works_per_req"] = perReq(d.works)
	m["kernel.rx_pkts_per_req"] = perReq(d.pktsIn)
	m["kernel.pkts_per_napi_poll"] = ratio(float64(d.pktsIn), float64(d.napiPolls))
	m["nic.tx_pkts_per_req"] = perReq(d.txPkts)
	m["tcb.est_lookups_per_req"] = perReq(d.estLookups)
	m["tcb.est_scan_per_lookup"] = ratio(float64(d.estScanned), float64(d.estLookups))
	m["tcb.listen_scan_per_lookup"] = ratio(float64(d.listenScanned), float64(d.listenLookups))
	m["epoll.notifies_per_req"] = perReq(d.notifies)
	m["epoll.events_per_wait"] = ratio(float64(d.delivered), float64(d.waits))
	m["vfs.allocs_per_req"] = perReq(d.vfsAllocs)
	m["netproto.pool_miss_frac"] = ratio(float64(d.poolNews), float64(d.poolGets))

	var umax, usum float64
	for _, b := range d.busy {
		// Work straddling the window edges can push a saturated core a
		// hair past 1; clamp as cpu.Utilization does.
		u := min(1, ratio(float64(b), float64(windowSim)))
		usum += u
		umax = max(umax, u)
	}
	m["cpu.util_mean"] = ratio(usum, float64(len(d.busy)))
	m["cpu.util_max"] = umax
	m["cpu.spin_frac"] = ratio(float64(d.spin), float64(d.busyTotal))
	for i, name := range kernel.LockNames {
		m["lock."+name+".wait_us_per_req"] = ratio(float64(d.lockWait[i])/float64(sim.Microsecond), req)
	}
	m["lock.contended_frac"] = ratio(float64(d.lockContended), float64(d.lockAcq))
	m["cache.miss_rate"] = ratio(float64(d.cacheMisses), float64(d.cacheAccesses))
	m["cache.bounces_per_req"] = perReq(d.cacheBounces)
	m["kernel.accept_empty_frac"] = ratio(float64(d.acceptEmpty), float64(d.accepts+d.acceptEmpty))
	m["kernel.soft_steers_per_req"] = perReq(d.softSteers)
	m["kernel.active_local_frac"] = ratio(float64(d.activeLocal), float64(d.activeIn))
	m["nic.ring_max"] = float64(ringMax)
}

// latencyPercentile is h's p-th percentile in simulated microseconds.
// Histogram.Percentile returns the lower edge of the bucket holding the
// target rank (buckets are ~6% wide), so a small shift would either
// vanish or jump a whole bucket; this interpolates linearly by rank
// within the bucket instead.
func latencyPercentile(h *stats.Histogram, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	at := func(rank uint64) sim.Time { return h.Percentile(100 * (float64(rank) + 0.5) / float64(n)) }
	target := min(uint64(p/100*float64(n)), n-1)
	v := at(target)
	// The bucket's ranks are [first, end): bisect for both edges.
	first := uint64(sort.Search(int(target), func(r int) bool { return at(uint64(r)) >= v }))
	end := target + 1 + uint64(sort.Search(int(n-target-1), func(r int) bool { return at(target+1+uint64(r)) > v }))
	// Bucket width, mirroring stats' layout: 1us buckets below 64us,
	// then 16 linear steps per octave.
	width := sim.Microsecond
	if us := int64(v / sim.Microsecond); us >= 64 {
		lo := int64(64)
		for lo<<1 <= us {
			lo <<= 1
		}
		width = sim.Time(lo/16) * sim.Microsecond
	}
	frac := (float64(target-first) + 0.5) / float64(end-first)
	return (float64(v) + frac*float64(width)) / float64(sim.Microsecond)
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
