package tcb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastsocket/internal/cache"
	"fastsocket/internal/cpu"
	"fastsocket/internal/lock"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// mkTask returns the context of a work item that stays open until the
// test ends: a *cpu.Task is valid only while its item runs, so the
// item parks on a channel, on the loop's goroutine, until cleanup.
func mkTask(t *testing.T) *cpu.Task {
	loop := sim.NewLoop()
	m := cpu.NewMachine(loop, 1)
	tasks := make(chan *cpu.Task)
	release, done := make(chan struct{}), make(chan struct{})
	m.Core(0).Submit(func(tk *cpu.Task) {
		tasks <- tk
		<-release
	})
	go func() {
		loop.Run()
		close(done)
	}()
	task := <-tasks
	t.Cleanup(func() {
		close(release)
		<-done
	})
	return task
}

func mkSock(i int) *tcp.Sock {
	sk := tcp.NewSock(tcp.DefaultParams(), 0)
	sk.Local = netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80}
	sk.Remote = netproto.Addr{IP: netproto.IPv4(10, 0, byte(i>>8), byte(i)), Port: netproto.Port(32768 + i%20000)}
	sk.State = tcp.Established
	return sk
}

func TestEstablishedInsertLookupRemove(t *testing.T) {
	task := mkTask(t)
	e := NewEstablished(256, nil, Costs{})
	sk := mkSock(1)
	e.Insert(task, sk)
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
	got := e.Lookup(task, sk.Tuple())
	if got != sk {
		t.Fatal("Lookup did not find inserted socket")
	}
	if !e.Remove(task, sk) {
		t.Fatal("Remove failed")
	}
	if e.Lookup(task, sk.Tuple()) != nil {
		t.Error("Lookup found removed socket")
	}
	if e.Remove(task, sk) {
		t.Error("double Remove succeeded")
	}
	st := e.Stats()
	if st.Inserts != 1 || st.Removes != 1 || st.Lookups != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEstablishedManySockets(t *testing.T) {
	task := mkTask(t)
	e := NewEstablished(64, nil, Costs{})
	socks := make([]*tcp.Sock, 500)
	for i := range socks {
		socks[i] = mkSock(i)
		e.Insert(task, socks[i])
	}
	if e.Len() != 500 {
		t.Fatalf("Len = %d", e.Len())
	}
	for i, sk := range socks {
		if e.Lookup(task, sk.Tuple()) != sk {
			t.Fatalf("socket %d lost in table", i)
		}
	}
	n := 0
	e.ForEach(func(*tcp.Sock) { n++ })
	if n != 500 {
		t.Errorf("ForEach visited %d", n)
	}
}

func TestEstablishedLockedWriters(t *testing.T) {
	task := mkTask(t)
	locks := lock.NewSharded("ehash.lock", 16, 0)
	e := NewEstablished(256, locks, Costs{})
	sk := mkSock(7)
	e.Insert(task, sk)
	e.Remove(task, sk)
	if got := locks.Stats().Acquisitions; got != 2 {
		t.Errorf("ehash lock acquisitions = %d, want 2 (insert+remove)", got)
	}
	// Lookups are lock-free.
	e.Lookup(task, sk.Tuple())
	if got := locks.Stats().Acquisitions; got != 2 {
		t.Errorf("lookup acquired the bucket lock (%d acquisitions)", got)
	}
}

func TestEstablishedChargesCosts(t *testing.T) {
	loop := sim.NewLoop()
	m := cpu.NewMachine(loop, 1)
	e := NewEstablished(4, nil, Costs{Hash: 10, Compare: 5, Link: 20})
	sk := mkSock(1)
	var charged sim.Time
	m.Core(0).Submit(func(tk *cpu.Task) {
		start := tk.Now()
		e.Insert(tk, sk) // hash + link = 30
		e.Lookup(tk, sk.Tuple())
		charged = tk.Now() - start
	})
	loop.Run()
	// Insert 30; lookup: hash 10 + >=1 compare 5 = >=15.
	if charged < 45 {
		t.Errorf("charged %v, want >= 45", charged)
	}
}

// refEstablished is the slice-per-bucket table the intrusive chain
// replaced: appends at the tail, order-preserving removal. It returns
// what each operation must charge and scan.
type refEstablished struct {
	buckets [][]*tcp.Sock
	costs   Costs
}

func (r *refEstablished) chain(ft netproto.FourTuple) *[]*tcp.Sock {
	return &r.buckets[ft.Hash()&uint64(len(r.buckets)-1)]
}

func (r *refEstablished) insert(sk *tcp.Sock) sim.Time {
	b := r.chain(sk.Tuple())
	*b = append(*b, sk)
	return r.costs.Hash + r.costs.Link
}

func (r *refEstablished) remove(sk *tcp.Sock) (bool, sim.Time) {
	b := r.chain(sk.Tuple())
	cost := r.costs.Hash
	for i, s := range *b {
		cost += r.costs.Compare
		if s == sk {
			*b = append((*b)[:i], (*b)[i+1:]...)
			return true, cost + r.costs.Link
		}
	}
	return false, cost
}

func (r *refEstablished) lookup(ft netproto.FourTuple) (*tcp.Sock, uint64, sim.Time) {
	cost := r.costs.Hash
	for i, sk := range *r.chain(ft) {
		cost += r.costs.Compare
		if sk.Remote == ft.Src && sk.Local == ft.Dst {
			return sk, uint64(i + 1), cost
		}
	}
	return nil, uint64(len(*r.chain(ft))), cost
}

func (r *refEstablished) order() []*tcp.Sock {
	var out []*tcp.Sock
	for _, b := range r.buckets {
		out = append(out, b...)
	}
	return out
}

// TestEstablishedMatchesSliceReference drives random inserts, removals
// (present and absent) and lookups (hits and misses) through a
// small-bucket table, unlocked and locked, and holds every result,
// charge, scan count and the ForEach order to the slice reference.
func TestEstablishedMatchesSliceReference(t *testing.T) {
	for _, locked := range []bool{false, true} {
		task := mkTask(t)
		costs := Costs{Hash: 3, Compare: 5, Link: 7}
		var locks *lock.Sharded
		if locked {
			locks = lock.NewSharded("ehash.lock", 2, 0)
		}
		e := NewEstablished(4, locks, costs)
		ref := &refEstablished{buckets: make([][]*tcp.Sock, 4), costs: costs}
		socks := make([]*tcp.Sock, 40)
		for i := range socks {
			socks[i] = mkSock(i)
		}
		in := make([]bool, len(socks))
		rng := rand.New(rand.NewSource(1))
		var hits, scanned uint64
		for op := 0; op < 4000; op++ {
			i := rng.Intn(len(socks))
			sk := socks[i]
			start := task.Now()
			var want sim.Time
			switch rng.Intn(3) {
			case 0:
				if in[i] {
					continue
				}
				e.Insert(task, sk)
				want = ref.insert(sk)
				in[i] = true
			case 1:
				got := e.Remove(task, sk)
				var ok bool
				ok, want = ref.remove(sk)
				if got != ok || got != in[i] {
					t.Fatalf("op %d: Remove(sock %d) = %v, reference %v, present %v", op, i, got, ok, in[i])
				}
				in[i] = false
			case 2:
				got := e.Lookup(task, sk.Tuple())
				wantSk, n, cost := ref.lookup(sk.Tuple())
				if got != wantSk {
					t.Fatalf("op %d: Lookup(sock %d) = %p, reference %p", op, i, got, wantSk)
				}
				if got != nil {
					hits++
				}
				scanned += n
				want = cost
			}
			if charged := task.Now() - start; charged != want {
				t.Fatalf("op %d (locked=%v): charged %v, reference %v", op, locked, charged, want)
			}
			if op%97 == 0 {
				var order []*tcp.Sock
				e.ForEach(func(sk *tcp.Sock) { order = append(order, sk) })
				wantOrder := ref.order()
				if len(order) != len(wantOrder) || e.Len() != len(wantOrder) {
					t.Fatalf("op %d: ForEach visited %d, Len %d, reference %d", op, len(order), e.Len(), len(wantOrder))
				}
				for j := range order {
					if order[j] != wantOrder[j] {
						t.Fatalf("op %d: ForEach order differs from the reference at %d", op, j)
					}
				}
			}
		}
		if st := e.Stats(); st.Hits != hits || st.Scanned != scanned {
			t.Errorf("locked=%v: Hits %d Scanned %d, reference %d and %d", locked, st.Hits, st.Scanned, hits, scanned)
		}
	}
}

// Removing a socket that is not in the table examines every entry of
// its chain, as the slice scan did.
func TestEstablishedRemoveAbsentChargesChain(t *testing.T) {
	task := mkTask(t)
	e := NewEstablished(1, nil, Costs{Hash: 3, Compare: 5, Link: 7})
	for i := 0; i < 3; i++ {
		e.Insert(task, mkSock(i))
	}
	start := task.Now()
	if e.Remove(task, mkSock(99)) {
		t.Fatal("removed a socket that was never inserted")
	}
	if got := task.Now() - start; got != 3+3*5 {
		t.Errorf("absent Remove charged %v, want hash + 3 compares = 18", got)
	}
}

func TestEstablishedBadBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEstablished(100) did not panic")
		}
	}()
	NewEstablished(100, nil, Costs{})
}

func TestEstablishedPartitionInvariant(t *testing.T) {
	// Property: any set of inserts followed by lookups finds exactly
	// the inserted sockets (no tuple aliasing between distinct
	// remotes).
	f := func(ids []uint16) bool {
		task := mkTask(t)
		e := NewEstablished(64, nil, Costs{})
		seen := map[netproto.FourTuple]*tcp.Sock{}
		for _, id := range ids {
			sk := mkSock(int(id))
			if _, dup := seen[sk.Tuple()]; dup {
				continue
			}
			seen[sk.Tuple()] = sk
			e.Insert(task, sk)
		}
		for ft, sk := range seen {
			if e.Lookup(task, ft) != sk {
				return false
			}
		}
		return e.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mkListen(port netproto.Port) *tcp.Sock {
	sk := tcp.NewSock(tcp.DefaultParams(), 0)
	sk.Local = netproto.Addr{IP: 0, Port: port} // wildcard bind
	sk.State = tcp.Listen
	return sk
}

func TestListenSingleSocket(t *testing.T) {
	task := mkTask(t)
	lt := NewListen(Costs{}, nil)
	sk := mkListen(80)
	lt.Insert(task, sk)
	got := lt.Lookup(task, netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80}, 12345, false)
	if got != sk {
		t.Fatal("listen lookup failed")
	}
	if lt.Lookup(task, netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 81}, 0, false) != nil {
		t.Error("lookup on unbound port matched")
	}
}

func TestListenSpecificIPPreferredOverWildcardMiss(t *testing.T) {
	task := mkTask(t)
	lt := NewListen(Costs{}, nil)
	sk := tcp.NewSock(tcp.DefaultParams(), 0)
	sk.Local = netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80}
	sk.State = tcp.Listen
	lt.Insert(task, sk)
	// Exact IP matches.
	if lt.Lookup(task, sk.Local, 0, false) != sk {
		t.Error("exact-IP listen lookup failed")
	}
	// Different IP does not.
	if lt.Lookup(task, netproto.Addr{IP: netproto.IPv4(10, 1, 0, 2), Port: 80}, 0, false) != nil {
		t.Error("lookup matched listen socket bound to another IP")
	}
}

func TestListenIgnoresNonListenState(t *testing.T) {
	task := mkTask(t)
	lt := NewListen(Costs{}, nil)
	sk := mkListen(80)
	sk.State = tcp.Closed // process died, socket destroyed
	lt.Insert(task, sk)
	if lt.Lookup(task, netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 80}, 0, false) != nil {
		t.Error("matched a dead listen socket")
	}
}

func TestReuseportSelectsByFlowHash(t *testing.T) {
	task := mkTask(t)
	lt := NewListen(Costs{}, nil)
	copies := make([]*tcp.Sock, 8)
	for i := range copies {
		copies[i] = mkListen(80)
		lt.Insert(task, copies[i])
	}
	local := netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80}
	// Stable: same flow hash -> same copy.
	a := lt.Lookup(task, local, 42, true)
	b := lt.Lookup(task, local, 42, true)
	if a != b {
		t.Error("reuseport selection not stable for a flow")
	}
	// Spreads: different hashes hit different copies.
	seen := map[*tcp.Sock]bool{}
	for h := uint32(0); h < 64; h++ {
		seen[lt.Lookup(task, local, h, true)] = true
	}
	if len(seen) != 8 {
		t.Errorf("reuseport spread over %d/8 copies", len(seen))
	}
}

func TestReuseportScanIsLinear(t *testing.T) {
	task := mkTask(t)
	lt := NewListen(Costs{}, nil)
	for i := 0; i < 24; i++ {
		lt.Insert(task, mkListen(80))
	}
	lt.Lookup(task, netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 80}, 5, true)
	if got := lt.Stats().Scanned; got != 24 {
		t.Errorf("reuseport lookup scanned %d entries, want 24", got)
	}
}

func TestReuseportScanBouncesCandidateLines(t *testing.T) {
	// Selecting a copy pulls that socket's lines exclusive to the
	// looking-up core (the accept queue is about to be written).
	loop := sim.NewLoop()
	m := cpu.NewMachine(loop, 2)
	rng := sim.NewRand(1)
	dom := cache.NewDomain(100, 0, rng)
	lt := NewListen(Costs{}, dom)
	var socks []*tcp.Sock
	m.Core(0).Submit(func(tk *cpu.Task) {
		for i := 0; i < 8; i++ {
			sk := mkListen(80)
			dom.Access(tk, &sk.Lines) // owner = core 0
			lt.Insert(tk, sk)
			socks = append(socks, sk)
		}
	})
	loop.Run()
	dom.ResetStats()
	m.Core(1).Submit(func(tk *cpu.Task) {
		lt.Lookup(tk, netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 80}, 3, true)
	})
	loop.Run()
	if got := dom.Stats().Bounces; got != 1 {
		t.Errorf("scan caused %d bounces, want 1 (selected copy only)", got)
	}
}

func TestListenRemove(t *testing.T) {
	task := mkTask(t)
	lt := NewListen(Costs{}, nil)
	a, b := mkListen(80), mkListen(80)
	lt.Insert(task, a)
	lt.Insert(task, b)
	if !lt.Remove(task, a) {
		t.Fatal("Remove failed")
	}
	if lt.Remove(task, a) {
		t.Error("double Remove succeeded")
	}
	if lt.Len() != 1 {
		t.Errorf("Len = %d", lt.Len())
	}
	got := lt.Lookup(task, netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 80}, 0, true)
	if got != b {
		t.Error("surviving copy not found after removal")
	}
}

func TestListenNilTaskInsert(t *testing.T) {
	// Setup-time inserts may run outside any core.
	lt := NewListen(Costs{}, nil)
	lt.Insert(nil, mkListen(80))
	if lt.Len() != 1 {
		t.Error("nil-task insert failed")
	}
	n := 0
	lt.ForEach(func(*tcp.Sock) { n++ })
	if n != 1 {
		t.Error("ForEach miscounted")
	}
}

func TestListenBucketsSeparatePorts(t *testing.T) {
	task := mkTask(t)
	lt := NewListen(Costs{}, nil)
	s80 := mkListen(80)
	s8080 := mkListen(8080)
	lt.Insert(task, s80)
	lt.Insert(task, s8080)
	if lt.Lookup(task, netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 8080}, 0, false) != s8080 {
		t.Error("port 8080 lookup failed")
	}
	if lt.Lookup(task, netproto.Addr{IP: netproto.IPv4(1, 1, 1, 1), Port: 80}, 0, false) != s80 {
		t.Error("port 80 lookup failed")
	}
}
