package core

import (
	"fastsocket/internal/cpu"
	"fastsocket/internal/netproto"
	"fastsocket/internal/tcb"
	"fastsocket/internal/tcp"
)

// Tables is the TCB-management policy layer: it routes every insert,
// removal, and lookup either to the partitioned per-core tables
// (Fastsocket) or to the shared global tables (stock kernels),
// implementing the fast path / slow path split of §3.2.
type Tables struct {
	// Global tables always exist: stock kernels use only these, and
	// Fastsocket keeps them for robustness (the slow path).
	GlobalListen *tcb.ListenTable
	GlobalEst    *tcb.EstablishedTable

	// Per-core tables, non-nil only when the respective Fastsocket
	// feature is on.
	LocalListen []*tcb.ListenTable
	LocalEst    []*tcb.EstablishedTable

	// NaiveNoFallback disables the global-listen slow path,
	// reproducing the broken "naive table-level partition" of §2.1
	// (used by tests to demonstrate the RST-on-crash failure).
	NaiveNoFallback bool
}

// UseLocalListen reports whether Local Listen Tables are enabled.
func (tb *Tables) UseLocalListen() bool { return tb.LocalListen != nil }

// UseLocalEst reports whether Local Established Tables are enabled.
func (tb *Tables) UseLocalEst() bool { return tb.LocalEst != nil }

// InsertEstablished places sk in the right established table. With
// local tables the socket goes into its home core's table; the
// caller (NET_RX or connect()) is already running there.
func (tb *Tables) InsertEstablished(t *cpu.Task, sk *tcp.Sock) {
	if tb.UseLocalEst() {
		tb.LocalEst[sk.HomeCore].Insert(t, sk)
		return
	}
	tb.GlobalEst.Insert(t, sk)
}

// RemoveEstablished unlinks sk from wherever it was inserted.
func (tb *Tables) RemoveEstablished(t *cpu.Task, sk *tcp.Sock) bool {
	if tb.UseLocalEst() {
		return tb.LocalEst[sk.HomeCore].Remove(t, sk)
	}
	return tb.GlobalEst.Remove(t, sk)
}

// LookupEstablished resolves an incoming packet's tuple on the
// current core.
func (tb *Tables) LookupEstablished(t *cpu.Task, ft netproto.FourTuple) *tcp.Sock {
	if tb.UseLocalEst() {
		return tb.LocalEst[t.CoreID()].Lookup(t, ft)
	}
	return tb.GlobalEst.Lookup(t, ft)
}

// LookupListen finds the listen socket for a SYN on the current core:
// the core's local table first (fast path), then the global table
// (slow path / stock kernels). reuseport selects SO_REUSEPORT chain
// semantics in the global table.
func (tb *Tables) LookupListen(t *cpu.Task, local netproto.Addr, flowHash uint32, reuseport bool) (sk *tcp.Sock, fromLocal bool) {
	if tb.UseLocalListen() {
		if sk := tb.LocalListen[t.CoreID()].Lookup(t, local, flowHash, false); sk != nil {
			return sk, true
		}
		if tb.NaiveNoFallback {
			return nil, false
		}
	}
	return tb.GlobalListen.Lookup(t, local, flowHash, reuseport), false
}

// HasListener reports whether any listen socket (local on this core
// or global) matches the address — RFD's classification rule 3.
func (tb *Tables) HasListener(t *cpu.Task, local netproto.Addr) bool {
	sk, _ := tb.LookupListen(t, local, 0, false)
	return sk != nil
}

// CloneListener implements local_listen(): it copies the global
// listen socket into core's local listen table and returns the copy.
// The copy shares the original's address and parameters but has its
// own accept queue.
func (tb *Tables) CloneListener(t *cpu.Task, global *tcp.Sock, core int) *tcp.Sock {
	if !tb.UseLocalListen() {
		panic("core: local_listen without Local Listen Table enabled")
	}
	local := tcp.NewSock(global.Params, 0)
	local.Local = global.Local
	local.Transition(1<<tcp.Closed, tcp.Listen)
	local.HomeCore = core
	local.Parent = global
	tb.LocalListen[core].Insert(t, local)
	return local
}

// RemoveLocalListener drops a core's local listen socket (process
// death), forcing subsequent SYNs on that core onto the slow path.
func (tb *Tables) RemoveLocalListener(t *cpu.Task, localSk *tcp.Sock) bool {
	if !tb.UseLocalListen() {
		return false
	}
	localSk.Transition(1<<tcp.Listen, tcp.Closed)
	return tb.LocalListen[localSk.HomeCore].Remove(t, localSk)
}
