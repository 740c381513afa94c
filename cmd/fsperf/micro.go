package main

import (
	"time"

	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// The engine microbenchmarks price the two costs that sit outside every
// traced span: the scheduler's schedule+fire per event, and the shard
// engine's mailbox per cross-domain message. Each repetition times one
// batch; like reqs_per_wall_s they take the 90th-percentile rate of the
// repetitions, reported as ns per operation.
const (
	microOps  = 4096
	microReps = 31
	// mailBatch is the messages posted per barrier window, near the
	// ~40 per epoch the workloads mail (shard.mail_per_req over
	// shard.epochs_per_req); the drain sorts each window's batch.
	mailBatch = 32
)

// fireNs prices sim.Loop schedule+fire with a no-op callback, at the
// near-term deadlines (up to one fabric delay out) most events have.
func fireNs() float64 {
	loop := sim.NewLoop()
	fn := func(any) {}
	rates := make([]float64, 0, microReps)
	for r := 0; r < microReps; r++ {
		base := loop.Now()
		start := time.Now()
		for i := 0; i < microOps; i++ {
			loop.AtArg(base+sim.Time(i%2000)*10, fn, nil)
		}
		loop.RunUntil(base + fabricDelay)
		rates = append(rates, microOps/time.Since(start).Seconds())
	}
	return 1e9 / quantile(rates, 0.9)
}

// postNs prices shard.Engine.Post plus the barrier drain that sorts and
// injects each message: the time per message of mailing batches from
// one domain to another, less that of scheduling the same batches
// directly on the destination (the fire and the barrier both runs pay).
// Repetitions of the two alternate, so host drift reaches both.
//
//fsvet:mailbox prices the mailbox itself, posting between two bare domains that no simulated machine lives on
func postNs() float64 {
	eng := shard.NewEngine(shard.Config{Lookahead: fabricDelay, Workers: 1})
	eng.AddDomain("src")
	eng.AddDomain("dst")
	defer eng.Close()
	fn := func(any) {}
	batches := func(src int) float64 {
		start := time.Now()
		for n := 0; n < microOps; n += mailBatch {
			base := eng.Now()
			for i := 0; i < mailBatch; i++ {
				eng.Post(src, 1, base+1+sim.Time(i), fn, nil)
			}
			eng.Run(base + fabricDelay)
		}
		return microOps / time.Since(start).Seconds()
	}
	mailed := make([]float64, 0, microReps)
	direct := make([]float64, 0, microReps)
	for r := 0; r < microReps; r++ {
		mailed = append(mailed, batches(0))
		direct = append(direct, batches(1))
	}
	return max(0, 1e9/quantile(mailed, 0.9)-1e9/quantile(direct, 0.9))
}
