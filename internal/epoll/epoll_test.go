package epoll

import (
	"testing"

	"fastsocket/internal/cpu"
	"fastsocket/internal/sim"
)

func run1(t *testing.T, fn func(tk *cpu.Task)) {
	loop := sim.NewLoop()
	m := cpu.NewMachine(loop, 1)
	done := false
	m.Core(0).Submit(func(tk *cpu.Task) { fn(tk); done = true })
	loop.Run()
	if !done {
		t.Fatal("work did not run")
	}
}

func TestNotifyThenWait(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		w := ep.Register(tk, 3)
		ep.Notify(tk, w, In)
		evs := ep.Wait(tk, 0)
		if len(evs) != 1 || evs[0].FD != 3 || evs[0].Events != In {
			t.Errorf("Wait = %+v", evs)
		}
	})
}

func TestNotifyCoalesces(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		w := ep.Register(tk, 3)
		ep.Notify(tk, w, In)
		ep.Notify(tk, w, In)
		ep.Notify(tk, w, Out)
		evs := ep.Wait(tk, 0)
		if len(evs) != 1 {
			t.Fatalf("got %d events, want 1 coalesced", len(evs))
		}
		if evs[0].Events != In|Out {
			t.Errorf("events = %v, want In|Out", evs[0].Events)
		}
	})
}

func TestWaitMaxEvents(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		for i := 0; i < 5; i++ {
			ep.Notify(tk, ep.Register(tk, i), In)
		}
		first := ep.Wait(tk, 3)
		if len(first) != 3 {
			t.Fatalf("first Wait = %d events, want 3", len(first))
		}
		rest := ep.Wait(tk, 3)
		if len(rest) != 2 {
			t.Fatalf("second Wait = %d events, want 2", len(rest))
		}
	})
}

func TestWakerFiredOnceWhileSleeping(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		wakes := 0
		ep.SetWaker(func() { wakes++ })
		w := ep.Register(tk, 3)
		// Not sleeping yet: no wake.
		ep.Notify(tk, w, In)
		if wakes != 0 {
			t.Errorf("woken while not sleeping")
		}
		ep.Wait(tk, 0) // drains
		// Empty wait -> sleeping.
		if got := ep.Wait(tk, 0); got != nil {
			t.Fatalf("expected empty wait, got %v", got)
		}
		ep.Notify(tk, w, In)
		ep.Notify(tk, w, In)
		if wakes != 1 {
			t.Errorf("wakes = %d, want exactly 1", wakes)
		}
	})
}

func TestUnregisterDiscardsPending(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		w := ep.Register(tk, 3)
		keep := ep.Register(tk, 4)
		ep.Notify(tk, w, In)
		ep.Notify(tk, keep, In)
		ep.Unregister(tk, w)
		ep.Unregister(tk, w) // double unregister is safe
		evs := ep.Wait(tk, 0)
		if len(evs) != 1 || evs[0].FD != 4 {
			t.Errorf("Wait = %+v, want only live", evs)
		}
	})
}

func TestNotifyDeadWatchIgnored(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		w := ep.Register(tk, 3)
		ep.Unregister(tk, w)
		ep.Notify(tk, w, In)
		ep.Notify(tk, nil, In)
		if ep.PendingReady() != 0 {
			t.Error("dead/nil watch queued")
		}
	})
}

func TestEpLockCrossCoreBounce(t *testing.T) {
	loop := sim.NewLoop()
	m := cpu.NewMachine(loop, 2)
	ep := New(25, Costs{})
	var w *Watch
	m.Core(0).Submit(func(tk *cpu.Task) {
		w = ep.Register(tk, 3)
		ep.Wait(tk, 0) // core 0 owns the lock line now
	})
	loop.Run()
	m.Core(1).Submit(func(tk *cpu.Task) {
		ep.Notify(tk, w, In) // remote notify: line transfer
	})
	loop.Run()
	if got := ep.Lock.Stats().Bounces; got != 1 {
		t.Errorf("ep.lock bounces = %d, want 1", got)
	}
}

func TestCostsCharged(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{Ctl: 7, Notify: 11, Wait: 13, PerEv: 3})
		start := tk.Now()
		w := ep.Register(tk, 3) // 7
		ep.Notify(tk, w, In)    // 11
		ep.Wait(tk, 0)          // 13 + 3
		if got := tk.Now() - start; got != 34 {
			t.Errorf("charged %v, want 34", got)
		}
	})
}

func TestStats(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		w := ep.Register(tk, 3)
		ep.Notify(tk, w, In)
		ep.Wait(tk, 0)
		st := ep.Stats()
		if st.Notifies != 1 || st.Waits != 1 || st.Delivered != 1 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestUnregisteredWatchReused(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		w := ep.Register(tk, 3)
		ep.Unregister(tk, w)
		w2 := ep.Register(tk, 4)
		if w2 != w {
			t.Fatal("an idle unregistered watch was not reused")
		}
		ep.Notify(tk, w2, In)
		if evs := ep.Wait(tk, 0); len(evs) != 1 || evs[0].FD != 4 || evs[0].Events != In {
			t.Errorf("Wait = %+v, want fd 4 In", evs)
		}
	})
}

// A watch unregistered while on the ready list is still referenced by
// it: handing it out again before Wait drops it would deliver the old
// fd's pending event under the new registration.
func TestQueuedWatchReusedOnlyAfterWait(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		w := ep.Register(tk, 3)
		ep.Notify(tk, w, In)
		ep.Unregister(tk, w)
		w2 := ep.Register(tk, 4)
		if w2 == w {
			t.Fatal("a queued watch was reused before Wait dropped it")
		}
		if evs := ep.Wait(tk, 0); evs != nil {
			t.Fatalf("Wait = %+v, want nothing (dead watch dropped)", evs)
		}
		if w3 := ep.Register(tk, 5); w3 != w {
			t.Error("the dropped watch was not reused")
		}
	})
}

func TestLevelWatchNeverReused(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		w := ep.Register(tk, 3)
		ep.SetLevel(w, func() Events { return In })
		if evs := ep.Wait(tk, 0); len(evs) != 1 || evs[0].FD != 3 {
			t.Fatalf("Wait = %+v, want level-triggered fd 3", evs)
		}
		ep.Notify(tk, w, In)
		ep.Unregister(tk, w)
		ep.Wait(tk, 0) // drops the queued dead watch
		idle := ep.Register(tk, 4)
		ep.SetLevel(idle, func() Events { return 0 })
		ep.Unregister(tk, idle) // never queued
		for fd := 5; fd < 8; fd++ {
			if got := ep.Register(tk, fd); got == w || got == idle {
				t.Fatal("a level-triggered watch was reused")
			}
		}
	})
}

// Wait hands back its reused result buffer, valid until the next Wait.
func TestWaitReusesResultBuffer(t *testing.T) {
	run1(t, func(tk *cpu.Task) {
		ep := New(0, Costs{})
		a, b := ep.Register(tk, 3), ep.Register(tk, 4)
		ep.Notify(tk, a, In)
		first := ep.Wait(tk, 0)
		ep.Notify(tk, b, In)
		second := ep.Wait(tk, 0)
		if len(first) != 1 || len(second) != 1 || &first[0] != &second[0] || second[0].FD != 4 {
			t.Errorf("Wait buffers %p %+v and %p %+v, want one reused buffer ending at fd 4",
				first, first, second, second)
		}
	})
}
