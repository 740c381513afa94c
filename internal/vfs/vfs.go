// Package vfs models the socket-relevant slice of the Virtual File
// System: file descriptor tables with the POSIX lowest-available-fd
// rule, and the inode/dentry allocation that every socket pays on
// creation and teardown.
//
// Three allocation paths reproduce the kernels the paper compares:
//
//   - Legacy2632: the global dcache_lock and inode_lock are taken for
//     every socket alloc/free — the two hottest locks in Table 1's
//     baseline column (26.4M and 4.3M contentions in 60s).
//   - Sharded313: mainline's finer-grained locking (per-superblock
//     lists, lockref dentries) modelled as sharded locks with lighter
//     work — better, but socket churn still pays for cache state it
//     never uses.
//   - Fastpath (Fastsocket-aware VFS): skips dentry/inode
//     initialization entirely, keeping only the fields /proc-reading
//     tools (netstat, lsof) require, so no global lock is touched.
package vfs

import (
	"fmt"
	"sort"

	"fastsocket/internal/cpu"
	"fastsocket/internal/lock"
	"fastsocket/internal/sim"
)

// Mode selects the allocation path.
type Mode int

// VFS behaviour profiles.
const (
	Legacy2632 Mode = iota
	Sharded313
	Fastpath
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Legacy2632:
		return "legacy-2.6.32"
	case Sharded313:
		return "sharded-3.13"
	case Fastpath:
		return "fastsocket-aware"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Costs parameterizes the allocation paths.
type Costs struct {
	// DentryWork/InodeWork: initialization done under the respective
	// lock on the legacy path (hash insertion, LRU linking, counters).
	DentryWork, InodeWork sim.Time
	// FreeWork: teardown under the same locks.
	FreeWork sim.Time
	// ShardedWork: per-lock work on the 3.13 path.
	ShardedWork sim.Time
	// FastWork: the whole Fastsocket fast path (minimal inode state).
	FastWork sim.Time
	// Shards: shard count for the 3.13 path.
	Shards int
}

// File is an open socket file: the private_data pointer plus the
// minimal inode identity kept for /proc compatibility.
//
//fsvet:percore a File belongs to the process that installed its fd; teardown runs from that owner
type File struct {
	Ino  uint64
	Sock any // *tcp.Sock, opaque here
}

// Stats counts layer activity.
type Stats struct {
	Allocs, Frees uint64
	Live          uint64
}

// Layer is the VFS state of one simulated kernel.
type Layer struct {
	mode  Mode
	costs Costs

	// Legacy global locks.
	Dcache *lock.SpinLock // "dcache_lock"
	Inode  *lock.SpinLock // "inode_lock"
	// 3.13 sharded replacements (stats reported under the same
	// names so lockstat tables line up).
	dcacheSharded *lock.Sharded
	inodeSharded  *lock.Sharded

	//fsvet:shared machine-wide inode counter; the Fastsocket fast path deliberately skips the VFS locks (per-socket VFS, §3.4), sharding it is ROADMAP work
	nextIno uint64
	//fsvet:shared machine-wide /proc registry kept for compatibility; mutated locklessly on the fast path by design (§3.4)
	open map[uint64]*File // /proc registry of live socket inodes
	//fsvet:shared lossy aggregate counters on the lockless fast path
	stats Stats
	// fileFree recycles File structs (the socket-slab analogue for the
	// struct file). Inode numbers are still minted fresh from nextIno,
	// so /proc output is unchanged by recycling.
	//
	//fsvet:percore file free list shards per-core with the engine (per-CPU slab caches)
	fileFree []*File
}

// NewLayer builds the VFS for a kernel. bounce is the lock cache-line
// transfer penalty.
func NewLayer(mode Mode, costs Costs, bounce sim.Time) *Layer {
	if costs.Shards == 0 {
		costs.Shards = 64
	}
	return &Layer{
		mode:          mode,
		costs:         costs,
		Dcache:        lock.New("dcache_lock", bounce),
		Inode:         lock.New("inode_lock", bounce),
		dcacheSharded: lock.NewSharded("dcache_lock", costs.Shards, bounce),
		inodeSharded:  lock.NewSharded("inode_lock", costs.Shards, bounce),
		nextIno:       10000,
		open:          map[uint64]*File{},
	}
}

// Mode returns the layer's mode.
func (l *Layer) Mode() Mode { return l.mode }

// Stats returns a snapshot of the counters.
func (l *Layer) Stats() Stats { return l.stats }

// DcacheStats returns lockstat counters for dcache_lock in whichever
// form the mode uses (zero under Fastpath).
func (l *Layer) DcacheStats() lock.Stats {
	if l.mode == Sharded313 {
		return l.dcacheSharded.Stats()
	}
	return l.Dcache.Stats()
}

// InodeStats is the inode_lock analogue of DcacheStats.
func (l *Layer) InodeStats() lock.Stats {
	if l.mode == Sharded313 {
		return l.inodeSharded.Stats()
	}
	return l.Inode.Stats()
}

// getFile mints a file with a fresh inode number, recycling a struct
// from the free list when one is parked.
func (l *Layer) getFile(sock any) *File {
	l.nextIno++
	if n := len(l.fileFree); n > 0 {
		f := l.fileFree[n-1]
		l.fileFree[n-1] = nil
		l.fileFree = l.fileFree[:n-1]
		f.Ino = l.nextIno
		f.Sock = sock
		return f
	}
	return &File{Ino: l.nextIno, Sock: sock}
}

// AllocSocketFile creates the VFS side of a socket: file + inode (+
// dentry on the legacy paths).
func (l *Layer) AllocSocketFile(t *cpu.Task, sock any) *File {
	f := l.getFile(sock)
	switch l.mode {
	case Legacy2632:
		l.Dcache.Hold(t, l.costs.DentryWork)
		l.Inode.Hold(t, l.costs.InodeWork)
	case Sharded313:
		l.dcacheSharded.Shard(f.Ino).Hold(t, l.costs.ShardedWork)
		l.inodeSharded.Shard(f.Ino).Hold(t, l.costs.ShardedWork)
	case Fastpath:
		// Fastsocket-aware VFS: no dentry/inode tables, no locks;
		// only the inode number and socket pointer needed by /proc.
		t.Charge(l.costs.FastWork)
	}
	l.open[f.Ino] = f
	l.stats.Allocs++
	l.stats.Live++
	return f
}

// AllocBoot creates a socket file at boot time (before any process
// runs), outside any core context: no costs are charged and no locks
// are touched. Used for listeners the master creates before forking.
func (l *Layer) AllocBoot(sock any) *File {
	f := l.getFile(sock)
	l.open[f.Ino] = f
	l.stats.Allocs++
	l.stats.Live++
	return f
}

// FreeSocketFile tears the file down and parks the struct for reuse.
func (l *Layer) FreeSocketFile(t *cpu.Task, f *File) {
	switch l.mode {
	case Legacy2632:
		l.Dcache.Hold(t, l.costs.FreeWork)
		l.Inode.Hold(t, l.costs.FreeWork)
	case Sharded313:
		l.dcacheSharded.Shard(f.Ino).Hold(t, l.costs.ShardedWork)
		l.inodeSharded.Shard(f.Ino).Hold(t, l.costs.ShardedWork)
	case Fastpath:
		t.Charge(l.costs.FastWork)
	}
	delete(l.open, f.Ino)
	l.stats.Frees++
	l.stats.Live--
	f.Sock = nil
	l.fileFree = append(l.fileFree, f)
}

// ProcEntries lists live socket inodes — the information /proc-based
// tools (netstat, lsof) rely on, which Fastsocket-aware VFS keeps
// even on the fast path (§3.4 "Keep Compatibility").
// Entries are returned in inode order so the listing (and anything
// derived from it) is independent of map iteration order.
func (l *Layer) ProcEntries() []*File {
	out := make([]*File, 0, len(l.open))
	for _, f := range l.open {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ino < out[j].Ino })
	return out
}

// --- FD table -------------------------------------------------------

// FDTable is one process's descriptor table. Allocation follows the
// POSIX lowest-available-fd rule — the paper keeps this rule (unlike
// Megapipe) because applications such as HAProxy index connection
// arrays by fd and assume it.
//
//fsvet:percore one fd table per process, and each process is pinned to one core (the paper's per-process model)
type FDTable struct {
	files []*File
}

// NewFDTable returns a table with stdin/stdout/stderr reserved, as in
// a real process.
func NewFDTable() *FDTable {
	return &FDTable{files: []*File{{Ino: 0}, {Ino: 1}, {Ino: 2}}}
}

// Install places f at the lowest free descriptor and returns it.
func (ft *FDTable) Install(f *File) int {
	for fd, cur := range ft.files {
		if cur == nil {
			ft.files[fd] = f
			return fd
		}
	}
	ft.files = append(ft.files, f)
	return len(ft.files) - 1
}

// Get returns the file at fd, or nil.
func (ft *FDTable) Get(fd int) *File {
	if fd < 0 || fd >= len(ft.files) {
		return nil
	}
	return ft.files[fd]
}

// Release frees fd, returning the file that occupied it (nil if the
// fd was not open).
func (ft *FDTable) Release(fd int) *File {
	if fd < 0 || fd >= len(ft.files) {
		return nil
	}
	f := ft.files[fd]
	ft.files[fd] = nil
	return f
}

// Open returns the number of live descriptors.
func (ft *FDTable) Open() int {
	n := 0
	for _, f := range ft.files {
		if f != nil {
			n++
		}
	}
	return n
}

// MaxFD returns the highest descriptor ever allocated (table size -
// 1); HAProxy sizes its connection array from this.
func (ft *FDTable) MaxFD() int { return len(ft.files) - 1 }
