package sim

// Scheduler internals: the event pool, the index-free 4-ary min-heap
// (near tier), the hierarchical timer wheel (far tier) and the arrival
// lane.
//
// Every scheduled event is a node in Loop.nodes, recycled through a
// free list, so steady-state scheduling performs no heap allocation.
// Handles (Event) carry the node index plus a generation counter that
// is bumped each time the slot is reused, which makes a stale handle's
// Cancel/Live/Cancelled safe without any bookkeeping on the hot path.
//
// Near-future events live in a 4-ary min-heap of (at, seq, idx, gen)
// entries. 4-ary rather than binary because sift-down then touches a
// quarter as many cache lines for the same comparison count, and the
// entries are values — no pointer chasing. Cancelling a heap-resident
// event only marks the pool node free; the orphaned heap entry is
// skipped when it surfaces (generation mismatch) and the heap is
// compacted eagerly once orphans outnumber half the heap.
//
// Far-future events — armed retransmission timers, TIME_WAIT
// expiries, most of which are cancelled before they fire — live in a
// hierarchical timer wheel (4 levels x 64 slots, 2^14 ns = ~16.4us
// level-0 granularity, ~275s total span). Wheel residency makes
// Cancel a true O(1) doubly-linked-list unlink that leaves nothing
// behind. A slot whose start time is reached is cascaded: its events
// re-route to lower levels or into the heap, always strictly
// downward, before anything at or after that time may fire — so the
// observable firing order remains exactly (at, seq) and determinism
// digests are unchanged by the tiering.
//
// Fabric arrivals (Loop.Arrive) take none of these: they come in
// nearly sorted — every packet crosses the fabric with the same
// delay — so they queue in a FIFO lane of (at, seq, fn, arg) entries
// with no node and no handle, and each pick takes the smaller of the
// lane head and the heap top by (at, seq).

import "math/bits"

const (
	// where: which tier a pool node currently occupies.
	whereFree uint8 = iota
	whereHeap
	whereWheel
)

const (
	// fate: how a freed node ended, readable by stale handles until
	// the slot is reused.
	fateFired uint8 = iota
	fateCancelled
)

const (
	wheelBits      = 6
	wheelSlotCount = 1 << wheelBits // 64 slots per level
	wheelLevels    = 4
	// slotShift0 sets level-0 granularity to 2^14 ns ~= 16.4us, finer
	// than any armed kernel timer (TIME_WAIT 250us, RTO 200ms). Only an
	// event due in the current level-0 slot goes straight to the heap;
	// one due in any later slot enters the wheel and cascades down.
	// Packet arrivals, 20us out, would all take that route; they ride
	// the arrival lane instead, so what enters the wheel is timers
	// (fsperf's short_fastsocket arms 5 kernel timers and the client's
	// SYN timer per request, against 10.99 arrivals).
	slotShift0 = 14

	// reapMinStale: below this many orphaned heap entries, compaction
	// costs more than it saves.
	reapMinStale = 64
)

// node is one pooled event. Links (next/prev) double as the free-list
// chain and the wheel slot list; level/slot locate a wheel resident
// for O(1) unlink.
type node struct {
	at  Time
	seq uint64
	fn  func()
	// afn/arg are the arg-carrying form (Loop.AtArg): a long-lived
	// callback plus the value it runs on. Storing a pointer in arg does
	// not allocate, so per-packet scheduling needs no per-event closure.
	afn   func(any)
	arg   any
	next  int32
	prev  int32
	gen   uint32
	where uint8
	fate  uint8
	level uint8
	slot  uint8
}

// laneEnt is one arrival-lane entry: an AtArg event without a node.
type laneEnt struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// heapEnt is a heap entry: the ordering key plus the pool reference.
// gen detects entries orphaned by Cancel (or by slot reuse after it).
type heapEnt struct {
	at  Time
	seq uint64
	idx int32
	gen uint32
}

func entLess(a, b heapEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// alloc takes a node from the free list (bumping its generation so
// old handles die) or grows the pool.
func (l *Loop) alloc() int32 {
	if l.free >= 0 {
		idx := l.free
		n := &l.nodes[idx]
		l.free = n.next
		n.gen++
		return idx
	}
	l.nodes = append(l.nodes, node{gen: 1})
	return int32(len(l.nodes) - 1)
}

// freeNode returns a node to the free list, recording how it ended.
// The generation is left alone: it only bumps on reuse, so a handle
// can still distinguish fired from cancelled in the meantime.
func (l *Loop) freeNode(idx int32, fate uint8) {
	n := &l.nodes[idx]
	n.fn = nil // release the closure
	n.afn = nil
	n.arg = nil
	n.where = whereFree
	n.fate = fate
	n.next = l.free
	n.prev = -1
	l.free = idx
	l.live--
}

// live reports whether a heap entry still refers to the event it was
// created for.
func (l *Loop) entLive(e heapEnt) bool {
	n := &l.nodes[e.idx]
	return n.gen == e.gen && n.where == whereHeap
}

// --- 4-ary min-heap ---

func (l *Loop) heapPush(e heapEnt) {
	l.heap = append(l.heap, e)
	h := l.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (l *Loop) heapPop() {
	h := l.heap
	n := len(h) - 1
	h[0] = h[n]
	l.heap = h[:n]
	if n > 1 {
		l.siftDown(0)
	}
}

func (l *Loop) siftDown(i int) {
	h := l.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[m]) {
				m = j
			}
		}
		if !entLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// skimTop pops orphaned entries until the heap top is live (or the
// heap is empty).
func (l *Loop) skimTop() {
	for len(l.heap) > 0 && !l.entLive(l.heap[0]) {
		l.heapPop()
		l.stale--
	}
}

// maybeReap compacts the heap once orphaned entries outnumber the
// live ones: filter in place, then re-heapify bottom-up. This bounds
// heap memory under schedule/cancel churn regardless of how deep the
// orphans are buried.
func (l *Loop) maybeReap() {
	if l.stale <= reapMinStale || l.stale*2 <= len(l.heap) {
		return
	}
	h := l.heap[:0]
	for _, e := range l.heap {
		if l.entLive(e) {
			h = append(h, e)
		}
	}
	l.heap = h
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		l.siftDown(i)
	}
	l.stale = 0
	l.stats.Reaps++
}

// --- hierarchical timer wheel ---

func wheelShift(lvl int) uint { return slotShift0 + wheelBits*uint(lvl) }

// wheelLevel picks the level for a deadline, always measured from the
// loop clock: the shallowest level whose slot granularity separates
// at from now. It returns -1 when the event is due within the current
// level-0 slot or beyond the top level's span — both heap cases.
//
// Routing strictly relative to now is what keeps the per-level
// occupancy bitmaps decodable: every occupied absolute slot A at a
// level satisfies A ∈ (now>>shift, now>>shift + 64) — true at insert
// because d ∈ [1, 63], and preserved as the clock advances because
// next() cascades any slot whose start is reached before the clock
// can pass it. Two distinct absolute slots in a 63-wide window can
// never share an index, so slot index ↔ absolute slot is one-to-one
// and wheelNext can recover start times from the bitmap alone.
func (l *Loop) wheelLevel(at Time) int {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		sh := wheelShift(lvl)
		d := (at >> sh) - (l.now >> sh)
		if d == 0 {
			return -1
		}
		if d < wheelSlotCount {
			return lvl
		}
	}
	return -1
}

// wheelInsert places the node in its level per wheelLevel, returning
// false when the deadline belongs in the heap.
func (l *Loop) wheelInsert(idx int32, at Time) bool {
	lvl := l.wheelLevel(at)
	if lvl < 0 {
		return false
	}
	l.wheelLink(idx, lvl, int((at>>wheelShift(lvl))&(wheelSlotCount-1)))
	return true
}

func (l *Loop) wheelLink(idx int32, lvl, slot int) {
	n := &l.nodes[idx]
	n.where = whereWheel
	n.level = uint8(lvl)
	n.slot = uint8(slot)
	head := l.wheelSlots[lvl][slot]
	n.prev = -1
	n.next = head
	if head >= 0 {
		l.nodes[head].prev = idx
	}
	l.wheelSlots[lvl][slot] = idx
	l.wheelOcc[lvl] |= 1 << uint(slot)
	l.wheelCount++
	if l.wheadOK {
		// The new slot may start before the cached head; ties go to
		// the shallower level, as in wheelNext's scan.
		sh := wheelShift(lvl)
		if s := n.at >> sh << sh; s < l.whead.start || (s == l.whead.start && lvl < l.whead.lvl) {
			l.whead = wheelPos{s, lvl, slot}
		}
	}
}

func (l *Loop) wheelUnlink(idx int32) {
	n := &l.nodes[idx]
	lvl, slot := int(n.level), int(n.slot)
	if n.prev >= 0 {
		l.nodes[n.prev].next = n.next
	} else {
		l.wheelSlots[lvl][slot] = n.next
	}
	if n.next >= 0 {
		l.nodes[n.next].prev = n.prev
	}
	if l.wheelSlots[lvl][slot] < 0 {
		l.wheelOcc[lvl] &^= 1 << uint(slot)
		if l.wheadOK && l.whead.lvl == lvl && l.whead.slot == slot {
			l.wheadOK = false
		}
	}
	l.wheelCount--
}

// wheelPos locates a wheel slot: its start time, level and index.
type wheelPos struct {
	start     Time
	lvl, slot int
}

// wheelHead returns the earliest occupied slot (start maxTime when the
// wheel is empty), from the cache when it holds. The cache is exact:
// occupied slots always start after the clock, so advancing the clock
// never changes which absolute slot is earliest, and only wheelLink
// (which may lower it), an unlink that empties the cached slot and a
// cascade (which clear it) change the answer.
func (l *Loop) wheelHead() wheelPos {
	if !l.wheadOK {
		l.whead, l.wheadOK = l.wheelNext(), true
	}
	return l.whead
}

// wheelNext locates the earliest occupied slot across all levels by a
// full bitmap scan. Because occupied slots always start in the future,
// each level has at most one pending absolute slot per index, found by
// rotating the occupancy bitmap to the clock's current position.
func (l *Loop) wheelNext() wheelPos {
	p := wheelPos{start: maxTime}
	for L := 0; L < wheelLevels; L++ {
		bm := l.wheelOcc[L]
		if bm == 0 {
			continue
		}
		sh := wheelShift(L)
		cur := l.now >> sh
		curIdx := int(cur) & (wheelSlotCount - 1)
		// Bit j of the rotated map is slot (curIdx+1+j) mod 64: the
		// first set bit is the next occupied slot after the clock.
		r := bits.RotateLeft64(bm, -(curIdx + 1))
		k := Time(bits.TrailingZeros64(r) + 1)
		a := cur + k
		if s := a << sh; s < p.start {
			p = wheelPos{s, L, int(a) & (wheelSlotCount - 1)}
		}
	}
	return p
}

// cascade empties one slot, re-routing each event strictly downward:
// to a finer level or into the heap. An event that would re-route to
// its own level again (possible when a heap deadline at or beyond the
// slot's start forces the cascade early, while the event itself is
// still far off) goes to the heap instead — the heap totally orders
// by (at, seq), so an early promotion never disturbs firing order,
// and it guarantees cascading always terminates.
func (l *Loop) cascade(lvl, slot int) {
	l.wheadOK = false
	idx := l.wheelSlots[lvl][slot]
	l.wheelSlots[lvl][slot] = -1
	l.wheelOcc[lvl] &^= 1 << uint(slot)
	for idx >= 0 {
		n := &l.nodes[idx]
		next := n.next
		l.wheelCount--
		if lo := l.wheelLevel(n.at); lo >= 0 && lo < lvl {
			l.wheelLink(idx, lo, int((n.at>>wheelShift(lo))&(wheelSlotCount-1)))
		} else {
			n.where = whereHeap
			l.heapPush(heapEnt{at: n.at, seq: n.seq, idx: idx, gen: n.gen})
		}
		idx = next
	}
	l.stats.Cascades++
}

// --- arrival lane ---

// lanePush appends an entry; the lane is a power-of-two ring that
// doubles when full, so pushes allocate nothing in steady state.
func (l *Loop) lanePush(e laneEnt) {
	if l.laneLen == len(l.lane) {
		grown := make([]laneEnt, max(64, 2*len(l.lane)))
		for i := 0; i < l.laneLen; i++ {
			grown[i] = l.lane[(l.laneHead+i)&(len(l.lane)-1)]
		}
		l.lane, l.laneHead = grown, 0
	}
	l.lane[(l.laneHead+l.laneLen)&(len(l.lane)-1)] = e
	l.laneLen++
}

// laneTail is the newest lane entry; the lane must be non-empty.
func (l *Loop) laneTail() *laneEnt {
	return &l.lane[(l.laneHead+l.laneLen-1)&(len(l.lane)-1)]
}

// nearest picks the earlier of the lane head and the heap top by
// (at, seq), reporting its time and whether it is the lane's. The heap
// top must be live (skimTop).
func (l *Loop) nearest() (at Time, lane, ok bool) {
	if l.laneLen > 0 {
		le := &l.lane[l.laneHead]
		if len(l.heap) == 0 || le.at < l.heap[0].at || (le.at == l.heap[0].at && le.seq < l.heap[0].seq) {
			return le.at, true, true
		}
	}
	if len(l.heap) > 0 {
		return l.heap[0].at, false, true
	}
	return 0, false, false
}

// dueBy reports whether any event can be due at or before t, without
// touching the wheel. The lane head and the live heap top are exact;
// for the wheel the earliest occupied slot's start time (wheelHead)
// lower-bounds every deadline the wheel holds, so a start after t
// proves nothing wheel-resident is due. This is RunUntil's
// fast-forward guard: a false return lets it advance the clock past
// arbitrarily many empty level-0 slots without a single cascade.
func (l *Loop) dueBy(t Time) bool {
	if l.laneLen > 0 && l.lane[l.laneHead].at <= t {
		return true
	}
	l.skimTop()
	if len(l.heap) > 0 && l.heap[0].at <= t {
		return true
	}
	if l.wheelCount > 0 {
		if l.wheelHead().start <= t {
			return true
		}
		l.stats.FastForwards++
	}
	return false
}

// next surfaces the earliest pending event, cascading any wheel slot
// that starts at or before both the lane head and the heap's earliest
// entry first (<= so that an equal-deadline wheel event with a smaller
// seq still fires in (at, seq) order). It returns that event's time and
// whether it is the lane head (else the heap top).
func (l *Loop) next() (at Time, lane, ok bool) {
	l.skimTop()
	for l.wheelCount > 0 {
		h := l.wheelHead()
		if at, _, ok := l.nearest(); ok && at < h.start {
			break
		}
		l.cascade(h.lvl, h.slot)
	}
	return l.nearest()
}
