package sim

import "testing"

// laneBed is one side of the arrival-lane differential test: a loop
// that receives arrivals through Arrive, or (the reference) through
// AtArg. Both sides see the same calls; every fired event logs its
// time and identity, and some fired events schedule more arrivals or
// stop the loop, so the two logs stay equal only while the firing
// orders do.
type laneBed struct {
	l      *Loop
	viaArg bool // the reference: arrivals are AtArg events
	log    []laneFire
	evs    []Event // handles of At/AtArg events, by call order
	ids    int
	arrFn  func(any)
	// stops arms the Stop calls; only Run takes them (a RunUntil
	// that stops still moves the clock to its bound).
	stops bool
}

type laneFire struct {
	at      Time
	id      int
	arrival bool
}

func newLaneBed(viaArg bool) *laneBed {
	b := &laneBed{l: NewLoop(), viaArg: viaArg}
	b.arrFn = func(v any) { b.fire(v.(int), true) }
	return b
}

// fire logs one event. Every seventh schedules a fabric arrival 20us
// later, as a delivered packet's reply would; every thirteenth stops
// a Run.
func (b *laneBed) fire(id int, arrival bool) {
	b.log = append(b.log, laneFire{b.l.Now(), id, arrival})
	if id%7 == 3 {
		b.arrive(b.l.Now() + 20*Microsecond)
	}
	if b.stops && id%13 == 5 {
		b.l.Stop()
	}
}

func (b *laneBed) arrive(t Time) {
	b.ids++
	if b.viaArg {
		b.l.AtArg(t, b.arrFn, b.ids)
	} else {
		b.l.Arrive(t, b.arrFn, b.ids)
	}
}

func (b *laneBed) at(t Time) {
	b.ids++
	id := b.ids
	b.evs = append(b.evs, b.l.At(t, func() { b.fire(id, false) }))
}

func (b *laneBed) atArg(t Time) {
	b.ids++
	b.evs = append(b.evs, b.l.AtArg(t, func(v any) { b.fire(v.(int), false) }, b.ids))
}

// checkWheelHead fails when the cached wheel head disagrees with a full
// bitmap scan.
func checkWheelHead(t *testing.T, l *Loop, step int) {
	t.Helper()
	if l.wheadOK && l.whead != l.wheelNext() {
		t.Fatalf("step %d: cached wheel head %+v, full scan %+v", step, l.whead, l.wheelNext())
	}
}

// TestArrivalLaneMatchesAtArg feeds a random mix of Arrive, At, AtArg,
// Cancel, RunUntil and Run-until-Stop to a loop and to a reference
// loop that receives every Arrive as AtArg. After every call the
// firing logs (time and identity), Fired, Pending and Now must be
// equal. The mix covers the out-of-order fallback, equal timestamps
// across the lane and the heap, lane arrivals at a wheel slot's start,
// and the RunUntil fast-forward; each must occur.
func TestArrivalLaneMatchesAtArg(t *testing.T) {
	lane, ref := newLaneBed(false), newLaneBed(true)
	rng := NewRand(25)
	var recent []Time // recent deadlines, for equal-timestamp draws
	var fallbacks, slotStarts, fastForwards, crossTies int
	deadline := func(now Time) Time {
		switch rng.Intn(8) {
		case 0, 1:
			return now + 20*Microsecond // the fabric delay
		case 2:
			return now + 20*Microsecond + rng.Duration(0, 60*Microsecond) // reordered
		case 3:
			if len(recent) > 0 {
				if r := recent[rng.Intn(len(recent))]; r >= now {
					return r
				}
			}
			return now
		case 4:
			// A level-0 slot's start, a few slots ahead.
			return ((now >> slotShift0) + Time(1+rng.Intn(3))) << slotShift0
		case 5:
			return now + rng.Duration(0, 16*Microsecond)
		case 6:
			return now + rng.Duration(0, 2*Millisecond)
		default:
			return now + rng.Duration(0, 300*Millisecond)
		}
	}
	const steps = 60000
	for step := 0; step < steps; step++ {
		now := lane.l.Now()
		switch r := rng.Intn(100); {
		case r < 35:
			at := deadline(now)
			l := lane.l
			if l.laneLen > 0 && at < l.laneTail().at {
				fallbacks++
			}
			if at&(1<<slotShift0-1) == 0 && at>>slotShift0 > now>>slotShift0 &&
				l.wheelOcc[0]&(1<<uint((at>>slotShift0)&(wheelSlotCount-1))) != 0 {
				slotStarts++
			}
			lane.arrive(at)
			ref.arrive(at)
			recent = append(recent, at)
		case r < 50:
			at := deadline(now)
			lane.at(at)
			ref.at(at)
			recent = append(recent, at)
		case r < 60:
			at := deadline(now)
			lane.atArg(at)
			ref.atArg(at)
			recent = append(recent, at)
		case r < 70:
			if len(lane.evs) > 0 {
				i := rng.Intn(len(lane.evs))
				lane.evs[i].Cancel()
				ref.evs[i].Cancel()
			}
		case r < 97:
			var until Time
			switch rng.Intn(4) {
			case 0:
				until = now + rng.Duration(0, 5*Microsecond)
			case 1, 2:
				until = now + rng.Duration(0, 100*Microsecond)
			default:
				until = now + rng.Duration(0, 50*Millisecond)
			}
			ff := lane.l.SchedStats().FastForwards
			lane.l.RunUntil(until)
			ref.l.RunUntil(until)
			if lane.l.SchedStats().FastForwards > ff {
				fastForwards++
			}
		default:
			// Run to the next Stop (or to empty).
			lane.stops, ref.stops = true, true
			lane.l.Run()
			ref.l.Run()
			lane.stops, ref.stops = false, false
		}
		if len(recent) > 64 {
			recent = recent[len(recent)-64:]
		}
		if len(lane.log) != len(ref.log) {
			t.Fatalf("step %d: %d events fired, reference %d", step, len(lane.log), len(ref.log))
		}
		for i := range lane.log {
			if lane.log[i] != ref.log[i] {
				t.Fatalf("step %d: firing[%d] = %+v, reference %+v", step, i, lane.log[i], ref.log[i])
			}
		}
		if lane.l.Fired() != ref.l.Fired() || lane.l.Pending() != ref.l.Pending() || lane.l.Now() != ref.l.Now() {
			t.Fatalf("step %d: fired/pending/now %d/%d/%v, reference %d/%d/%v", step,
				lane.l.Fired(), lane.l.Pending(), lane.l.Now(), ref.l.Fired(), ref.l.Pending(), ref.l.Now())
		}
		checkWheelHead(t, lane.l, step)
		checkWheelHead(t, ref.l, step)
		for i := 1; i < len(lane.log); i++ {
			if a, b := lane.log[i-1], lane.log[i]; a.at == b.at && a.arrival != b.arrival {
				crossTies++
			}
		}
		// The logs hold only what fired during one call.
		lane.log, ref.log = lane.log[:0], ref.log[:0]
	}
	if fallbacks == 0 || slotStarts == 0 || fastForwards == 0 || crossTies == 0 {
		t.Errorf("vacuous run: %d out-of-order fallbacks, %d arrivals at an occupied slot's start, %d fast-forwards, %d lane/heap ties",
			fallbacks, slotStarts, fastForwards, crossTies)
	}
}

// TestWheelHeadCacheExact checks the cached wheel head against a full
// bitmap scan after every schedule, cancel, cascade and clock advance,
// with deadlines spread over every wheel level.
func TestWheelHeadCacheExact(t *testing.T) {
	l := NewLoop()
	rng := NewRand(3)
	var evs []Event
	spans := []Time{16 * Microsecond, Millisecond, 80 * Millisecond, 5 * Second}
	hits := 0
	for step := 0; step < 40000; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			evs = append(evs, l.After(rng.Duration(0, spans[rng.Intn(len(spans))]), func() {}))
		case r < 7:
			if len(evs) > 0 {
				i := rng.Intn(len(evs))
				evs[i].Cancel()
				evs[i] = evs[len(evs)-1]
				evs = evs[:len(evs)-1]
			}
		case r < 9:
			l.RunUntil(l.Now() + rng.Duration(0, spans[rng.Intn(3)]))
		default:
			l.Step()
		}
		if l.wheadOK {
			hits++
		}
		checkWheelHead(t, l, step)
	}
	if hits == 0 {
		t.Error("the wheel head was never cached")
	}
}
