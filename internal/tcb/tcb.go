// Package tcb implements TCP control-block management: the listen
// table and the established table (Linux's inet hashtables), in every
// variant the paper compares.
//
// Established table:
//   - global with per-bucket "ehash.lock" spinlocks (all stock
//     kernels): lookups are lock-free (RCU in Linux), but inserts and
//     removals serialize on the bucket lock, and under high
//     connection churn the buckets' cache lines bounce;
//   - per-core local tables (Fastsocket's Local Established Table):
//     no locks at all — correctness depends on every insert and
//     lookup for a flow happening on one core, which Receive Flow
//     Deliver guarantees.
//
// Listen table:
//   - a single listen socket per port (base 2.6.32): every core
//     fights over that socket's accept queue;
//   - SO_REUSEPORT (Linux 3.13): per-process listen socket copies
//     chained in one bucket, selected by flow hash — an O(n) scan
//     whose per-entry cost is dominated by pulling each candidate's
//     cache lines from the core it lives on (the paper measures
//     inet_lookup_listener at 24.2% of per-core CPU on 24 cores);
//   - Fastsocket's Local Listen Table: a per-core table holding the
//     core's own copy, O(1) and lock-free, with the global table kept
//     for the robustness slow path.
package tcb

import (
	"fastsocket/internal/cache"
	"fastsocket/internal/cpu"
	"fastsocket/internal/lock"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
	"fastsocket/internal/tcp"
)

// Costs charges table operations to the executing core.
type Costs struct {
	Hash    sim.Time // computing the bucket hash
	Compare sim.Time // examining one chain entry (excl. cache misses)
	Link    sim.Time // linking/unlinking a chain entry
}

// EstablishedStats counts table activity.
type EstablishedStats struct {
	Inserts, Removes, Lookups, Hits uint64
	Scanned                         uint64 // chain entries examined
}

// EstablishedTable is one established-connections hash table.
type EstablishedTable struct {
	// buckets holds each chain's head. Chains link through
	// tcp.Sock.EhashNext, so inserting never allocates; entries keep
	// insertion order (new sockets go to the tail).
	buckets []*tcp.Sock
	mask    uint64
	// locks is nil for Fastsocket local tables (lock-free by
	// construction); otherwise the per-bucket ehash locks.
	locks *lock.Sharded
	costs Costs
	//fsvet:shared lossy counters on the lock-free lookup path (RCU reads in Linux); writes go under the bucket lock
	stats EstablishedStats
	count int
}

// NewEstablished builds a table with the given power-of-two bucket
// count. locks may be nil for a per-core local table.
func NewEstablished(buckets int, locks *lock.Sharded, costs Costs) *EstablishedTable {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic("tcb: bucket count must be a positive power of two")
	}
	return &EstablishedTable{
		buckets: make([]*tcp.Sock, buckets),
		mask:    uint64(buckets - 1),
		locks:   locks,
		costs:   costs,
	}
}

// Stats returns a snapshot of the table counters.
func (e *EstablishedTable) Stats() EstablishedStats { return e.stats }

// Len returns the number of sockets in the table.
func (e *EstablishedTable) Len() int { return e.count }

// bucket returns the tuple's hash and a pointer to its chain head.
func (e *EstablishedTable) bucket(ft netproto.FourTuple) (uint64, **tcp.Sock) {
	h := ft.Hash()
	return h, &e.buckets[h&e.mask]
}

// Insert adds sk under its tuple. Writers take the bucket lock when
// the table is shared.
func (e *EstablishedTable) Insert(t *cpu.Task, sk *tcp.Sock) {
	t.Charge(e.costs.Hash)
	h, b := e.bucket(sk.Tuple())
	if e.locks == nil {
		e.link(t, b, sk) //fsvet:shared local table: RFD keeps every flow of a per-core table on its own core
		return
	}
	e.locks.Shard(h).With(t, func() { e.link(t, b, sk) })
}

// link appends sk to the chain headed at b.
func (e *EstablishedTable) link(t *cpu.Task, b **tcp.Sock, sk *tcp.Sock) {
	t.Charge(e.costs.Link)
	link := b
	for *link != nil {
		if *link == sk {
			panic("tcb: socket inserted twice")
		}
		link = &(*link).EhashNext
	}
	sk.EhashNext = nil
	*link = sk
	e.count++
	e.stats.Inserts++
}

// Remove unlinks sk, reporting whether it was present.
func (e *EstablishedTable) Remove(t *cpu.Task, sk *tcp.Sock) bool {
	t.Charge(e.costs.Hash)
	h, b := e.bucket(sk.Tuple())
	if e.locks == nil {
		return e.unlink(t, b, sk) //fsvet:shared local table: RFD keeps every flow of a per-core table on its own core
	}
	removed := false
	e.locks.Shard(h).With(t, func() { removed = e.unlink(t, b, sk) })
	return removed
}

// unlink removes sk from the chain headed at b, reporting whether it
// was present.
func (e *EstablishedTable) unlink(t *cpu.Task, b **tcp.Sock, sk *tcp.Sock) bool {
	for link := b; *link != nil; link = &(*link).EhashNext {
		t.Charge(e.costs.Compare)
		if *link == sk {
			t.Charge(e.costs.Link)
			*link = sk.EhashNext
			sk.EhashNext = nil
			e.count--
			e.stats.Removes++
			return true
		}
	}
	return false
}

// Lookup finds the socket for an incoming packet's tuple. Reads are
// lock-free (RCU semantics in Linux).
func (e *EstablishedTable) Lookup(t *cpu.Task, ft netproto.FourTuple) *tcp.Sock {
	t.Charge(e.costs.Hash)
	e.stats.Lookups++
	_, b := e.bucket(ft)
	for sk := *b; sk != nil; sk = sk.EhashNext {
		t.Charge(e.costs.Compare)
		e.stats.Scanned++
		if sk.Remote == ft.Src && sk.Local == ft.Dst {
			e.stats.Hits++
			return sk
		}
	}
	return nil
}

// ForEach visits every socket (for /proc/net/tcp-style introspection;
// not charged — the tools run outside the measured workload).
func (e *EstablishedTable) ForEach(fn func(*tcp.Sock)) {
	for _, head := range e.buckets {
		for sk := head; sk != nil; sk = sk.EhashNext {
			fn(sk)
		}
	}
}

// --- Listen table ---------------------------------------------------

// ListenStats counts listen-table activity.
type ListenStats struct {
	Lookups, Hits uint64
	Scanned       uint64 // chain entries examined (the O(n) cost)
}

// LHTableSize matches Linux's INET_LHTABLE_SIZE (32 buckets; listen
// sockets are few, chains exist only with SO_REUSEPORT).
const LHTableSize = 32

// ListenTable holds listen sockets hashed by local port.
type ListenTable struct {
	buckets [LHTableSize][]*tcp.Sock
	costs   Costs
	// domain, when non-nil, models pulling each scanned candidate's
	// cache lines from the core that owns it — the dominant cost of
	// the SO_REUSEPORT chain scan.
	domain *cache.Domain
	//fsvet:shared lossy counters on the lock-free listener lookup (RCU chain scan in Linux)
	stats ListenStats
	count int
	// scratch is the reuseport candidate buffer, reused across lookups
	// so the chain scan never allocates.
	//
	//fsvet:shared one softirq executes per lookup today; becomes per-core scratch when the engine shards
	scratch []*tcp.Sock
}

// NewListen builds a listen table; domain may be nil to disable the
// cache model (per-core local tables, whose entries stay local).
func NewListen(costs Costs, domain *cache.Domain) *ListenTable {
	return &ListenTable{costs: costs, domain: domain}
}

// Stats returns a snapshot of the counters.
func (lt *ListenTable) Stats() ListenStats { return lt.stats }

// Len returns the number of listen sockets.
func (lt *ListenTable) Len() int { return lt.count }

func listenBucket(port netproto.Port) int { return int(port) % LHTableSize }

// Insert registers a listen socket. Listen-table writes happen at
// application startup, not on the data path, so no lock is modelled.
func (lt *ListenTable) Insert(t *cpu.Task, sk *tcp.Sock) {
	if t != nil {
		t.Charge(lt.costs.Hash + lt.costs.Link)
	}
	b := listenBucket(sk.Local.Port)
	lt.buckets[b] = append(lt.buckets[b], sk)
	lt.count++
}

// Remove unlinks a listen socket (process exit), reporting presence.
func (lt *ListenTable) Remove(t *cpu.Task, sk *tcp.Sock) bool {
	if t != nil {
		t.Charge(lt.costs.Hash)
	}
	b := listenBucket(sk.Local.Port)
	for i, s := range lt.buckets[b] {
		if s == sk {
			lt.buckets[b] = append(lt.buckets[b][:i], lt.buckets[b][i+1:]...)
			lt.count--
			return true
		}
	}
	return false
}

func (lt *ListenTable) matches(sk *tcp.Sock, local netproto.Addr) bool {
	return sk.State == tcp.Listen &&
		sk.Local.Port == local.Port &&
		(sk.Local.IP == 0 || sk.Local.IP == local.IP)
}

// Lookup finds a listen socket for a SYN addressed to local. With
// reuseport semantics the entire chain is scanned and a copy is
// picked by flowHash — inet_lookup_listener's O(n) behaviour; without
// it the first match wins.
func (lt *ListenTable) Lookup(t *cpu.Task, local netproto.Addr, flowHash uint32, reuseport bool) *tcp.Sock {
	t.Charge(lt.costs.Hash)
	lt.stats.Lookups++
	b := lt.buckets[listenBucket(local.Port)]
	if !reuseport {
		for _, sk := range b {
			t.Charge(lt.costs.Compare)
			lt.stats.Scanned++
			if lt.matches(sk, local) {
				lt.stats.Hits++
				return sk
			}
		}
		return nil
	}
	candidates := lt.scratch[:0]
	for _, sk := range b {
		// Scoring an entry reads its socket fields; those lines are
		// shared read-mostly across cores (an L3 hit, folded into
		// Compare), so only the O(n) scan cost accrues per entry.
		t.Charge(lt.costs.Compare)
		lt.stats.Scanned++
		if lt.matches(sk, local) {
			candidates = append(candidates, sk)
		}
	}
	lt.scratch = candidates
	if len(candidates) == 0 {
		return nil
	}
	sk := candidates[int(flowHash)%len(candidates)]
	if lt.domain != nil {
		// The selected socket is about to be written (accept queue),
		// pulling its lines exclusive from the accepting core.
		lt.domain.Access(t, &sk.Lines)
	}
	lt.stats.Hits++
	return sk
}

// ForEach visits every listen socket.
func (lt *ListenTable) ForEach(fn func(*tcp.Sock)) {
	for i := range lt.buckets {
		for _, sk := range lt.buckets[i] {
			fn(sk)
		}
	}
}
