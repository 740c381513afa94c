package cpu

import (
	"testing"

	"fastsocket/internal/lock"
	"fastsocket/internal/sim"
)

func newTestMachine(n int) (*sim.Loop, *Machine) {
	l := sim.NewLoop()
	return l, NewMachine(l, n)
}

func TestSerialExecution(t *testing.T) {
	l, m := newTestMachine(1)
	c := m.Core(0)
	var done []sim.Time
	c.Submit(func(tk *Task) {
		tk.Charge(100)
		done = append(done, tk.Now())
	})
	c.Submit(func(tk *Task) {
		tk.Charge(50)
		done = append(done, tk.Now())
	})
	l.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 150 {
		t.Errorf("completion times = %v, want [100 150]", done)
	}
	if c.BusyTime() != 150 {
		t.Errorf("BusyTime = %v, want 150", c.BusyTime())
	}
}

func TestSoftIRQPriority(t *testing.T) {
	l, m := newTestMachine(1)
	c := m.Core(0)
	var order []string
	// Submit process work first, then softirq; all are queued before
	// the core starts draining, so interrupt context runs first.
	c.Submit(func(tk *Task) { order = append(order, "proc1"); tk.Charge(10) })
	c.Submit(func(tk *Task) { order = append(order, "proc2"); tk.Charge(10) })
	c.SubmitSoftIRQ(func(tk *Task) { order = append(order, "irq"); tk.Charge(10) })
	l.Run()
	want := []string{"irq", "proc1", "proc2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCoresIndependent(t *testing.T) {
	l, m := newTestMachine(2)
	var t0, t1 sim.Time
	m.Core(0).Submit(func(tk *Task) { tk.Charge(100); t0 = tk.Now() })
	m.Core(1).Submit(func(tk *Task) { tk.Charge(100); t1 = tk.Now() })
	l.Run()
	if t0 != 100 || t1 != 100 {
		t.Errorf("parallel completions = %v, %v, want 100, 100", t0, t1)
	}
}

func TestSpinAccounting(t *testing.T) {
	l, m := newTestMachine(2)
	lk := lock.New("l", 0)
	m.Core(0).Submit(func(tk *Task) { lk.Hold(tk, 200) })
	m.Core(1).Submit(func(tk *Task) { lk.Hold(tk, 10) }) // spins until 200
	l.Run()
	if spin := m.Core(1).SpinTime(); spin != 200 {
		t.Errorf("core 1 SpinTime = %v, want 200", spin)
	}
	if busy := m.Core(1).BusyTime(); busy != 210 {
		t.Errorf("core 1 BusyTime = %v, want 210", busy)
	}
	if m.Core(0).SpinTime() != 0 {
		t.Errorf("core 0 spun %v", m.Core(0).SpinTime())
	}
}

func TestDeferRunsAtVirtualTime(t *testing.T) {
	l, m := newTestMachine(1)
	var at sim.Time
	m.Core(0).Submit(func(tk *Task) {
		tk.Charge(75)
		tk.Defer(func() { at = l.Now() })
		tk.Charge(25) // charging after Defer does not move the event
	})
	l.Run()
	if at != 75 {
		t.Errorf("deferred fn ran at %v, want 75", at)
	}
}

func TestSubmitDuringWork(t *testing.T) {
	// Work submitted to the same core while it is busy starts when
	// the core frees.
	l, m := newTestMachine(1)
	c := m.Core(0)
	var second sim.Time
	c.Submit(func(tk *Task) {
		tk.Charge(100)
		c.Submit(func(tk2 *Task) {
			second = tk2.Now()
			tk2.Charge(1)
		})
	})
	l.Run()
	if second != 100 {
		t.Errorf("second work started at %v, want 100", second)
	}
}

func TestUtilization(t *testing.T) {
	l, m := newTestMachine(2)
	before := m.BusySnapshot()
	m.Core(0).Submit(func(tk *Task) { tk.Charge(250) })
	l.RunUntil(1000)
	after := m.BusySnapshot()
	u := Utilization(before, after, 1000)
	if u[0] != 0.25 {
		t.Errorf("core 0 utilization = %v, want 0.25", u[0])
	}
	if u[1] != 0 {
		t.Errorf("core 1 utilization = %v, want 0", u[1])
	}
	if z := Utilization(before, after, 0); z[0] != 0 {
		t.Error("zero window should yield zero utilization")
	}
}

func TestUtilizationClamped(t *testing.T) {
	u := Utilization([]sim.Time{0}, []sim.Time{500}, 100)
	if u[0] != 1 {
		t.Errorf("utilization = %v, want clamped to 1", u[0])
	}
}

func TestWorkCountAndQueueStats(t *testing.T) {
	l, m := newTestMachine(1)
	c := m.Core(0)
	for i := 0; i < 5; i++ {
		c.Submit(func(tk *Task) { tk.Charge(10) })
	}
	if c.MaxQueue() != 5 {
		t.Errorf("MaxQueue = %d, want 5", c.MaxQueue())
	}
	l.Run()
	if c.Works() != 5 {
		t.Errorf("Works = %d, want 5", c.Works())
	}
	if c.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after drain", c.QueueLen())
	}
}

func TestZeroCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMachine(0) did not panic")
		}
	}()
	NewMachine(sim.NewLoop(), 0)
}

func TestNegativeChargePanics(t *testing.T) {
	l, m := newTestMachine(1)
	m.Core(0).Submit(func(tk *Task) {
		defer func() {
			if recover() == nil {
				t.Error("negative charge did not panic")
			}
		}()
		tk.Charge(-1)
	})
	l.Run()
}

func TestMachineAccessors(t *testing.T) {
	l, m := newTestMachine(3)
	if m.NumCores() != 3 || len(m.Cores()) != 3 {
		t.Error("core count mismatch")
	}
	if m.Loop() != l {
		t.Error("Loop() mismatch")
	}
	if m.Core(2).ID() != 2 {
		t.Error("Core ID mismatch")
	}
	var mm *Machine
	m.Core(1).Submit(func(tk *Task) {
		mm = tk.Machine()
		if tk.CoreID() != 1 || tk.Core() != m.Core(1) {
			t.Error("task core accessors mismatch")
		}
	})
	l.Run()
	if mm != m {
		t.Error("Task.Machine mismatch")
	}
}

// The core reuses one Task for every item: each item must still start
// from a clean context, with its own start time and no inherited spin.
func TestTaskReinitialisedPerItem(t *testing.T) {
	l, m := newTestMachine(1)
	c := m.Core(0)
	type seen struct{ now, spin sim.Time }
	var got []seen
	c.Submit(func(tk *Task) {
		got = append(got, seen{tk.Now(), tk.spin})
		tk.Charge(100)
		tk.Spin(50)
	})
	c.Submit(func(tk *Task) {
		got = append(got, seen{tk.Now(), tk.spin})
		tk.Charge(10)
	})
	l.Run()
	want := []seen{{0, 0}, {150, 0}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("items saw (now, spin) = %v, want %v", got, want)
	}
	if c.SpinTime() != 50 || c.BusyTime() != 160 {
		t.Errorf("SpinTime = %v, BusyTime = %v, want 50 and 160", c.SpinTime(), c.BusyTime())
	}
}

// A *Task kept past its item must not silently charge the core's
// next item.
func TestTaskUseAfterItemPanics(t *testing.T) {
	l, m := newTestMachine(1)
	var kept *Task
	m.Core(0).Submit(func(tk *Task) { kept = tk })
	l.Run()
	for _, c := range []struct {
		name string
		use  func()
	}{
		{"Charge", func() { kept.Charge(1) }},
		{"CoreID", func() { kept.CoreID() }},
		{"Defer", func() { kept.Defer(func() {}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a finished task did not panic", c.name)
				}
			}()
			c.use()
		}()
	}
}
