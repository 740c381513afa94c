// Package fault is the simulation's deterministic fault-injection
// plane. One Engine, seeded from the run seed, decides the fate of
// every segment and allocation at three layers of the stack:
//
//   - link: drop / duplicate / reorder-delay / truncate-corrupt a
//     segment on the wire, with independent probabilities per
//     direction (toward a server port vs. back to the client).
//   - NIC: finite per-queue RX ring capacity with tail-drop (the ring
//     bound itself lives in internal/nic; Plan.RingSize merely
//     overrides the kernel's configured size).
//   - kernel: memory pressure that fails VFS inode/dentry and TCB
//     allocations with configurable probability, exercising the
//     error-return paths through socket(), accept() and the SYN fast
//     path.
//
// # Determinism
//
// Decisions never come from a stateful PRNG stream shared across
// flows. Each decision is a pure splitmix-style hash of
//
//	run seed ⊕ flow tuple ⊕ segment seq/flags ⊕ layer salt ⊕ occurrence
//
// where the occurrence counter is a per-key count of how many times
// that exact key has been drawn. Per-flow keying means the fate of a
// segment depends only on its own identity and history, never on how
// other flows' packets interleave with it — so timing perturbations
// that reorder events *across* flows (different NAPI batching, a
// different core draining first) cannot shift any decision, and two
// runs with the same seed are byte-identical, including when
// internal/sweep runs whole simulations on parallel host workers
// (each run owns its Engine). The occurrence counter also guarantees
// a retransmitted segment gets a fresh draw instead of being
// re-dropped forever.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
)

// LinkFaults are the wire-level fault probabilities for one
// direction. The probabilities are cumulative-exclusive: one draw per
// segment picks at most one action.
type LinkFaults struct {
	Drop    float64 // segment vanishes
	Dup     float64 // segment delivered twice
	Reorder float64 // segment delayed by ReorderDelay (passes later traffic)
	Corrupt float64 // payload truncated, checksum bad; receiver discards
	// ReorderDelay is the extra one-way delay of a reordered segment
	// (default 200us — enough to pass several later segments on a
	// 20us LAN).
	ReorderDelay sim.Time
	// DropFirst deterministically drops the first N segments seen in
	// this direction, before any probabilistic draw. Used by tests
	// and targeted scenarios that need a specific early loss.
	DropFirst int
}

func (lf LinkFaults) enabled() bool {
	return lf.Drop > 0 || lf.Dup > 0 || lf.Reorder > 0 || lf.Corrupt > 0 || lf.DropFirst > 0
}

// Plan is the complete, purely-declarative fault configuration for
// one machine. The zero Plan injects nothing.
type Plan struct {
	// C2S applies to segments travelling toward a well-known (server)
	// port; S2C to the reverse direction.
	C2S, S2C LinkFaults
	// RingSize overrides the NIC RX ring capacity (0 = keep the
	// kernel's configured size; negative = unbounded).
	RingSize int
	// AllocFail is the probability that a VFS inode/dentry or TCB
	// allocation fails (memory-pressure mode).
	AllocFail float64
	// Lifecycle schedules host/worker crash, drain and restart events
	// (the lifecycle plane). The zero value schedules nothing.
	Lifecycle LifecyclePlan
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.C2S.enabled() || p.S2C.enabled() || p.RingSize != 0 || p.AllocFail > 0 ||
		p.Lifecycle.Enabled()
}

// LinkEnabled reports whether any wire-level fault is configured.
func (p Plan) LinkEnabled() bool { return p.C2S.enabled() || p.S2C.enabled() }

// Action is the fate of one segment on the wire.
type Action int

// Link actions.
const (
	None Action = iota
	Drop
	Dup
	Reorder
	Corrupt
)

// Directions, indexed by Direction().
const (
	DirC2S = 0 // toward a well-known (server) port
	DirS2C = 1 // back toward an ephemeral (client) port
)

// Direction classifies a packet by its destination port.
func Direction(p *netproto.Packet) int {
	if p.Dst.Port.IsWellKnown() {
		return DirC2S
	}
	return DirS2C
}

// Stats counts injected faults.
type Stats struct {
	LinkDrops    uint64
	LinkDups     uint64
	LinkReorders uint64
	LinkCorrupts uint64
	AllocFails   uint64
}

// Allocation sites, domain-separating AllocOK draws.
const (
	SiteSocket uint64 = 1 // socket(): inode+dentry alloc
	SiteAccept uint64 = 2 // accept(): file alloc for the child
	SiteTCB    uint64 = 3 // passive SYN: child TCB alloc
)

// Engine makes the per-run fault decisions. A nil *Engine is valid
// and injects nothing, so callers need no guards.
type Engine struct {
	seed uint64
	plan Plan
	// seen counts prior draws per decision key; it is the occurrence
	// term of the hash (retransmits redraw). Accessed by key only —
	// never iterated — so it cannot leak map ordering.
	seen         map[uint64]uint64
	firstDropped [2]int
	stats        Stats
}

// NewEngine builds an engine for one run.
func NewEngine(seed uint64, plan Plan) *Engine {
	if plan.C2S.ReorderDelay == 0 {
		plan.C2S.ReorderDelay = 200 * sim.Microsecond
	}
	if plan.S2C.ReorderDelay == 0 {
		plan.S2C.ReorderDelay = 200 * sim.Microsecond
	}
	return &Engine{seed: seed, plan: plan, seen: map[uint64]uint64{}}
}

// Plan returns the engine's plan (zero Plan for a nil engine).
func (e *Engine) Plan() Plan {
	if e == nil {
		return Plan{}
	}
	return e.plan
}

// Stats returns a snapshot of the fault counters.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return e.stats
}

// Add merges two fault-counter snapshots (per-sender views under the
// sharded fabric are summed in sorted shard order; plain sums
// commute, so the merge is deterministic).
func (s Stats) Add(o Stats) Stats {
	s.LinkDrops += o.LinkDrops
	s.LinkDups += o.LinkDups
	s.LinkReorders += o.LinkReorders
	s.LinkCorrupts += o.LinkCorrupts
	s.AllocFails += o.AllocFails
	return s
}

// SenderView derives an engine sharing this one's seed and plan but
// with private occurrence and counter state. The fabric gives each
// sending domain its own view so LinkAction stays thread-free:
// decisions are keyed per (flow, direction, seq, occurrence) and all
// of a flow-direction's transmissions originate from one domain, so
// every key's occurrence sequence — and therefore every decision — is
// the same whatever the domain split. DropFirst counts per view: on a
// one-domain bed the single view sees every segment, so it drops
// exactly the first N as before; on a multi-domain bed each sender
// drops its own first N (no committed plan uses it there).
func (e *Engine) SenderView() *Engine {
	if e == nil {
		return nil
	}
	return &Engine{seed: e.seed, plan: e.plan, seen: map[uint64]uint64{}}
}

const (
	saltLink  uint64 = 0x6c696e6b_00000001
	saltAlloc uint64 = 0x616c6c6f_00000002
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw returns a uniform float64 in [0,1) for this key's next
// occurrence. Identical (key, occurrence) pairs always draw the same
// value in a given run.
func (e *Engine) draw(key uint64) float64 {
	n := e.seen[key]
	e.seen[key] = n + 1
	h := mix64(e.seed ^ mix64(key) ^ (n+1)*0x9e3779b97f4a7c15)
	return float64(h>>11) / (1 << 53)
}

// LinkAction decides the fate of a segment entering the wire, and for
// Reorder returns the extra delay to add. At most one action applies
// per transmission; a retransmission of the same segment redraws.
func (e *Engine) LinkAction(p *netproto.Packet) (Action, sim.Time) {
	if e == nil {
		return None, 0
	}
	dir := Direction(p)
	lf := &e.plan.C2S
	if dir == DirS2C {
		lf = &e.plan.S2C
	}
	if !lf.enabled() {
		return None, 0
	}
	if e.firstDropped[dir] < lf.DropFirst {
		e.firstDropped[dir]++
		e.stats.LinkDrops++
		return Drop, 0
	}
	key := p.Tuple().Hash() ^ uint64(p.Seq)<<8 ^ uint64(p.Flags) ^ saltLink
	u := e.draw(key)
	cum := lf.Drop
	if u < cum {
		e.stats.LinkDrops++
		return Drop, 0
	}
	cum += lf.Dup
	if u < cum {
		e.stats.LinkDups++
		return Dup, 0
	}
	cum += lf.Reorder
	if u < cum {
		e.stats.LinkReorders++
		return Reorder, lf.ReorderDelay
	}
	cum += lf.Corrupt
	if u < cum {
		e.stats.LinkCorrupts++
		return Corrupt, 0
	}
	return None, 0
}

// AllocOK decides whether an allocation succeeds under the plan's
// memory-pressure probability. site is one of the Site* constants;
// key carries per-flow identity where one exists (0 otherwise). A
// retried allocation redraws via the occurrence counter.
func (e *Engine) AllocOK(site, key uint64) bool {
	if e == nil || e.plan.AllocFail <= 0 {
		return true
	}
	if e.draw(mix64(site*0x9e3779b97f4a7c15^key)^saltAlloc) < e.plan.AllocFail {
		e.stats.AllocFails++
		return false
	}
	return true
}

// CorruptCopy returns a shallow copy of p with its payload truncated
// and the Corrupt bit set — a frame whose TCP checksum will fail at
// the receiver.
func CorruptCopy(p *netproto.Packet) *netproto.Packet {
	cp := *p
	if len(cp.Payload) > 0 {
		cp.Payload = cp.Payload[:len(cp.Payload)/2]
	}
	cp.Corrupt = true
	return &cp
}

// --- Lifecycle plane --------------------------------------------------
//
// The lifecycle plane schedules host- and worker-granularity failure
// events: hard crashes (every TCB dropped, listeners torn down,
// processes dead), graceful drains (listeners closed, established
// connections allowed to finish until a deadline), and cold restarts.
// Unlike the link faults there is nothing probabilistic here — events
// fire at fixed simulated times and the policies are declarative — so
// the determinism contract is trivial: the schedule is part of the
// configuration, independent of cross-flow interleaving, and identical
// at any shard worker count by construction.

// LifecycleAction is the kind of one scheduled lifecycle event.
type LifecycleAction int

// Lifecycle actions. Host* events affect the whole machine; Worker*
// events affect a single process (a listen_spawn worker) while the
// rest of the machine keeps serving.
const (
	// HostCrash kills the machine at Event.At: every TCB is dropped,
	// listeners and per-core listen tables are torn down, processes
	// die. Subsequent segments are answered per the Dead policy.
	HostCrash LifecycleAction = iota + 1
	// HostDrain closes the machine's listeners at Event.At (new SYNs
	// are refused per the DrainSilent policy) and lets established
	// connections finish until Event.Deadline, after which the
	// leftovers are swept with RST.
	HostDrain
	// WorkerCrash kills one process: its local listen clone and wake
	// registrations are removed and its connections are reset.
	WorkerCrash
	// WorkerDrain removes one process's local listen clone and wake
	// registrations (new connections rebalance onto its peers), lets
	// its connections finish until Event.Deadline, then sweeps the
	// leftovers with RST.
	WorkerDrain
)

// String names the action.
func (a LifecycleAction) String() string {
	switch a {
	case HostCrash:
		return "host-crash"
	case HostDrain:
		return "host-drain"
	case WorkerCrash:
		return "worker-crash"
	case WorkerDrain:
		return "worker-drain"
	default:
		return fmt.Sprintf("LifecycleAction(%d)", int(a))
	}
}

// DeadPolicy decides the fate of segments arriving for a crashed
// host.
type DeadPolicy int

// Dead-host policies.
const (
	// DeadSilent drops segments to a dead host on the floor (the
	// physical behaviour: a powered-off machine answers nothing, and
	// peers discover the failure only via their own timers).
	DeadSilent DeadPolicy = iota
	// DeadRST answers every non-RST segment with a RST — the
	// fail-fast signal of a host whose kernel is up but whose stack
	// holds no state (or of an ICMP-unreachable-translating LB).
	DeadRST
)

// LifecycleEvent is one scheduled crash/drain with an optional
// restart.
type LifecycleEvent struct {
	// At is the absolute simulated time the event fires.
	At sim.Time
	// Action selects what happens.
	Action LifecycleAction
	// Worker indexes the target process for Worker* actions (the
	// kernel's process creation order); ignored for Host* actions.
	Worker int
	// RestartAfter, when positive, cold-restarts the host (or worker)
	// that long after the event completes: empty tables and caches,
	// listeners re-registered, processes rerun their startup. 0 means
	// the target stays down.
	RestartAfter sim.Time
	// Deadline is the drain grace period: established connections may
	// finish for this long after At before the forced RST sweep.
	// Ignored for crashes (a crash is immediate). 0 sweeps at once.
	Deadline sim.Time
}

// LifecyclePlan is the declarative lifecycle schedule for one
// machine. The zero value schedules nothing.
type LifecyclePlan struct {
	Events []LifecycleEvent
	// Dead is the crashed-host answer policy (default DeadSilent).
	Dead DeadPolicy
	// DrainSilent drops SYNs arriving during a drain instead of
	// answering RST (default false: refuse fast so clients re-resolve
	// immediately).
	DrainSilent bool
}

// Enabled reports whether any lifecycle event is scheduled.
func (lp LifecyclePlan) Enabled() bool { return len(lp.Events) > 0 }

// parseSimDuration parses "5ms"-style duration literals into
// simulated time. Local so the package stays off the wall-clock time
// package; only the units the plan specs use are supported.
func parseSimDuration(val string) (sim.Time, error) {
	units := []struct {
		suffix string
		scale  sim.Time
	}{
		{"ns", 1},
		{"us", sim.Microsecond},
		{"µs", sim.Microsecond},
		{"ms", sim.Millisecond},
		{"s", sim.Second},
	}
	for _, u := range units {
		num, ok := strings.CutSuffix(val, u.suffix)
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil || f < 0 {
			return 0, fmt.Errorf("bad duration %q", val)
		}
		return sim.Time(f * float64(u.scale)), nil
	}
	return 0, fmt.Errorf("bad duration %q (want e.g. 500us, 5ms, 1s)", val)
}

// ParsePlan parses a compact plan spec of comma-separated key=value
// pairs, e.g. "loss=0.01,ring=256,allocfail=0.001". Probabilistic
// keys (loss, dup, reorder, corrupt) apply to both directions.
// Lifecycle keys (crash, drain, restart, deadline, worker, deadpolicy,
// drainsyn) compose one scheduled lifecycle event, e.g.
// "crash=5ms,restart=2ms,deadpolicy=rst".
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	// One lifecycle event may be composed across keys; assembled at
	// the end if any lifecycle key appeared.
	var lifeEv LifecycleEvent
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Plan{}, fmt.Errorf("fault: bad plan entry %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "loss", "drop", "dup", "reorder", "corrupt", "allocfail":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f >= 1 {
				return Plan{}, fmt.Errorf("fault: %s=%q is not a probability in [0,1)", key, val)
			}
			switch key {
			case "loss", "drop":
				p.C2S.Drop, p.S2C.Drop = f, f
			case "dup":
				p.C2S.Dup, p.S2C.Dup = f, f
			case "reorder":
				p.C2S.Reorder, p.S2C.Reorder = f, f
			case "corrupt":
				p.C2S.Corrupt, p.S2C.Corrupt = f, f
			case "allocfail":
				p.AllocFail = f
			}
		case "ring":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: ring=%q is not an integer", val)
			}
			p.RingSize = n
		case "crash", "drain", "restart", "deadline":
			st, err := parseSimDuration(val)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: %s=%q is not a duration", key, val)
			}
			switch key {
			case "crash":
				lifeEv.At, lifeEv.Action = st, HostCrash
			case "drain":
				lifeEv.At, lifeEv.Action = st, HostDrain
			case "restart":
				lifeEv.RestartAfter = st
			case "deadline":
				lifeEv.Deadline = st
			}
		case "worker":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Plan{}, fmt.Errorf("fault: worker=%q is not a process index", val)
			}
			lifeEv.Worker = n + 1 // sentinel-shifted; unshifted below
		case "deadpolicy":
			switch strings.ToLower(val) {
			case "silent":
				p.Lifecycle.Dead = DeadSilent
			case "rst":
				p.Lifecycle.Dead = DeadRST
			default:
				return Plan{}, fmt.Errorf("fault: deadpolicy=%q (want silent or rst)", val)
			}
		case "drainsyn":
			switch strings.ToLower(val) {
			case "rst":
				p.Lifecycle.DrainSilent = false
			case "silent":
				p.Lifecycle.DrainSilent = true
			default:
				return Plan{}, fmt.Errorf("fault: drainsyn=%q (want rst or silent)", val)
			}
		default:
			return Plan{}, fmt.Errorf("fault: unknown plan key %q", key)
		}
	}
	if lifeEv.Action != 0 {
		if lifeEv.Worker > 0 {
			lifeEv.Worker--
			if lifeEv.Action == HostCrash {
				lifeEv.Action = WorkerCrash
			} else {
				lifeEv.Action = WorkerDrain
			}
		}
		p.Lifecycle.Events = append(p.Lifecycle.Events, lifeEv)
	} else if lifeEv != (LifecycleEvent{}) {
		return Plan{}, fmt.Errorf("fault: restart/deadline/worker need crash= or drain=")
	}
	return p, nil
}
