package app

import (
	"bytes"
	"sort"
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
)

// The TSO fault-granularity invariant: an armed link-fault plane must
// draw one decision per MSS-sized wire chunk with the exact keys and
// occurrence order the offloads-off transmission of the same bytes
// would use, so the set of bytes on the wire — and which of them are
// dropped, duplicated, reordered or corrupted — is identical whether
// the sender handed the NIC one super-segment or a train of MSS
// packets.

// wireChunk is one MSS-granularity arrival observation.
type wireChunk struct {
	at      sim.Time
	seq     uint32
	n       int
	corrupt bool
	sum     uint32 // payload byte sum (content equality)
}

// chunkRecorder expands every arrival into MSS-sized chunks.
type chunkRecorder struct {
	loop   *sim.Loop
	mss    int
	chunks []wireChunk
}

func (r *chunkRecorder) Deliver(p *netproto.Packet) {
	payload := p.Payload
	for off := 0; off < len(payload); off += r.mss {
		end := off + r.mss
		if end > len(payload) {
			end = len(payload)
		}
		var sum uint32
		for _, b := range payload[off:end] {
			sum += uint32(b)
		}
		r.chunks = append(r.chunks, wireChunk{
			at:      r.loop.Now(),
			seq:     p.Seq + uint32(off),
			n:       end - off,
			corrupt: p.Corrupt,
			sum:     sum,
		})
	}
}

func sortChunks(cs []wireChunk) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].at != cs[j].at {
			return cs[i].at < cs[j].at
		}
		if cs[i].seq != cs[j].seq {
			return cs[i].seq < cs[j].seq
		}
		return cs[i].n < cs[j].n
	})
}

// faultWire builds a one-domain fabric with an armed fault engine and
// a chunk recorder on the receiver IP.
func faultWire(plan fault.Plan, mss int) (*sim.Loop, *Network, *Port, *chunkRecorder) {
	loop, net, port := oneDomain(20 * sim.Microsecond)
	net.faults = fault.NewEngine(11, plan)
	rec := &chunkRecorder{loop: loop, mss: mss}
	port.Attach(rec, netproto.IPv4(10, 2, 0, 1))
	return loop, net, port, rec
}

func bulkPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

func TestTSOFaultDecisionsMatchOffloadsOff(t *testing.T) {
	const mss = 1460
	plan := fault.Plan{
		C2S: fault.LinkFaults{Drop: 0.1, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1},
		S2C: fault.LinkFaults{Drop: 0.1, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1},
	}
	src := netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80}
	dst := netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 4000}
	for _, tc := range []struct {
		name  string
		bytes int
	}{
		{"mss-multiple", 44 * mss},
		{"ragged-tail", 10*mss + 500},
		{"two-supers", 2 * 44 * mss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := bulkPayload(tc.bytes)

			// Offloads on: hand the wire TSOMaxBytes-sized supers.
			loopOn, netOn, portOn, recOn := faultWire(plan, mss)
			superMax := 44 * mss
			for off := 0; off < len(payload); off += superMax {
				end := off + superMax
				if end > len(payload) {
					end = len(payload)
				}
				p := &netproto.Packet{
					Src: src, Dst: dst, Flags: netproto.PSH | netproto.ACK,
					Seq: 1000 + uint32(off), Ack: 77, Payload: payload[off:end],
				}
				if end-off > mss {
					p.GSOSize = mss
				}
				portOn.Send(p)
			}
			loopOn.Run()

			// Offloads off: the same bytes as a train of MSS packets.
			loopOff, netOff, portOff, recOff := faultWire(plan, mss)
			for off := 0; off < len(payload); off += mss {
				end := off + mss
				if end > len(payload) {
					end = len(payload)
				}
				portOff.Send(&netproto.Packet{
					Src: src, Dst: dst, Flags: netproto.PSH | netproto.ACK,
					Seq: 1000 + uint32(off), Ack: 77, Payload: payload[off:end],
				})
			}
			loopOff.Run()

			if netOn.Stats().LostRandom != netOff.Stats().LostRandom {
				t.Errorf("drops diverge: on=%d off=%d",
					netOn.Stats().LostRandom, netOff.Stats().LostRandom)
			}
			if netOn.Stats().LostRandom == 0 && tc.bytes > 20*mss {
				t.Error("no drops at 10% loss; the equivalence is vacuous")
			}
			on, off := recOn.chunks, recOff.chunks
			sortChunks(on)
			sortChunks(off)
			if len(on) != len(off) {
				t.Fatalf("wire chunk counts diverge: on=%d off=%d", len(on), len(off))
			}
			for i := range on {
				if on[i] != off[i] {
					t.Fatalf("chunk %d diverges:\n on=%+v\noff=%+v", i, on[i], off[i])
				}
			}
		})
	}
}

// TestTSOCleanWireSingleArrival pins the fast path: with no fault hit
// on any chunk, the super-segment arrives as ONE packet (no split, no
// copy), and its bytes are the original payload.
func TestTSOCleanWireSingleArrival(t *testing.T) {
	const mss = 1460
	loop, _, port := oneDomain(20 * sim.Microsecond)
	var got *netproto.Packet
	rec := endpointFunc(func(p *netproto.Packet) { got = p })
	port.Attach(rec, netproto.IPv4(10, 2, 0, 1))
	payload := bulkPayload(44 * mss)
	p := &netproto.Packet{
		Src:     netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80},
		Dst:     netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 4000},
		Flags:   netproto.PSH | netproto.ACK,
		Seq:     1000,
		Payload: payload,
		GSOSize: mss,
	}
	port.Send(p)
	loop.Run()
	if got != p {
		t.Fatal("clean super-segment was split or copied on a fault-free wire")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("payload bytes changed in flight")
	}
}

type endpointFunc func(*netproto.Packet)

func (f endpointFunc) Deliver(p *netproto.Packet) { f(p) }
