// Package netproto defines the on-the-wire representation used by the
// simulated stack: IPv4/TCP addressing, TCP segments with flags and
// sequence numbers, the RSS flow hash NICs use to pick an RX queue,
// and the minimal HTTP/1.0 codec the workload applications speak
// (the paper's motivating workload: ~600-byte requests, ~1200-byte
// responses, one packet each, connection closed after the exchange).
package netproto

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address.
type IP uint32

// IPv4 builds an IP from dotted-quad components.
func IPv4(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Port is a TCP port number.
type Port uint16

// WellKnownMax is the top of the well-known port range; RFD's
// classification rules (paper §3.3) key off this boundary.
const WellKnownMax Port = 1024

// IsWellKnown reports whether p is in the well-known range (<1024).
func (p Port) IsWellKnown() bool { return p < WellKnownMax }

// Linux default ephemeral port range (ip_local_port_range).
const (
	EphemeralLow  Port = 32768
	EphemeralHigh Port = 61000
)

// Addr is an IP:port endpoint.
type Addr struct {
	IP   IP
	Port Port
}

// String renders "ip:port".
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// FourTuple identifies a TCP connection from the receiver's point of
// view: Src is the remote endpoint, Dst the local one.
type FourTuple struct {
	Src, Dst Addr
}

// Reversed swaps the endpoints (the tuple as seen from the peer).
func (ft FourTuple) Reversed() FourTuple { return FourTuple{Src: ft.Dst, Dst: ft.Src} }

// Hash is a 64-bit mix of the tuple used for hash-table bucketing.
func (ft FourTuple) Hash() uint64 {
	h := uint64(ft.Src.IP)<<32 | uint64(ft.Dst.IP)
	h ^= uint64(ft.Src.Port)<<48 | uint64(ft.Dst.Port)<<32 | uint64(ft.Src.Port)<<16 | uint64(ft.Dst.Port)
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Flags is a TCP flag bitmask.
type Flags uint8

// TCP segment flags.
const (
	SYN Flags = 1 << iota
	ACK
	FIN
	RST
	PSH
)

// Has reports whether all bits in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders e.g. "SYN|ACK".
func (f Flags) String() string {
	var parts []string
	for _, fl := range []struct {
		bit  Flags
		name string
	}{{SYN, "SYN"}, {ACK, "ACK"}, {FIN, "FIN"}, {RST, "RST"}, {PSH, "PSH"}} {
		if f.Has(fl.bit) {
			parts = append(parts, fl.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// HeaderBytes is the IPv4+TCP header size we account for packet
// processing costs (20 + 20, no options).
const HeaderBytes = 40

// Packet is one TCP/IPv4 segment in flight.
//
//fsvet:percore a packet is owned by exactly one layer at a time (adoption semantics); every write happens under that ownership
type Packet struct {
	Src, Dst Addr
	Flags    Flags
	Seq, Ack uint32
	Payload  []byte
	// Frags holds additional payload slices merged onto this packet by
	// GRO: the receive path treats the logical payload as Payload
	// followed by every Frags entry, in order (the simulated analogue
	// of skb frag lists). Donor packets' payload slices are stolen, not
	// copied — safe because payload bytes are immutable in flight and
	// receivers copy them out.
	Frags [][]byte
	// GSOSize, when non-zero, marks a TSO super-segment: the payload
	// carries multiple wire segments of this size (the MSS), split
	// lazily by the NIC at transmit (skb_shinfo(skb)->gso_size).
	GSOSize int
	// Corrupt marks a frame damaged in flight (fault injection): the
	// TCP checksum fails at the receiver and the segment is discarded
	// after the RX processing cost has been paid.
	Corrupt bool
	// pooled marks a packet currently parked in a PacketPool free list;
	// it guards against double-free (a second Put is a no-op).
	pooled bool
}

// PayloadLen returns the logical payload length: the direct Payload
// plus any GRO-merged fragments.
func (p *Packet) PayloadLen() int {
	n := len(p.Payload)
	for _, f := range p.Frags {
		n += len(f)
	}
	return n
}

// PacketPool is a free list of Packet structs — the simulated
// equivalent of Fastsocket's enable_skb_pool: the steady-state data
// path recycles segment headers instead of allocating one per
// transmission. Put parks any packet not already parked, whoever
// allocated it, because the wire hands the sender's *Packet to the
// receiver: the receiving endpoint is the one that frees it. A pool
// therefore gains what its users receive and loses what they send,
// and it stays balanced only when every endpoint that exchanges
// packets with another draws from the same pool. app's fabric gives
// each shard domain one pool, shared by every endpoint attached to
// that domain, and moves parked surplus between domains at engine
// barriers (MoveTo); an endpoint with a private pool that receives
// more than it sends hoards packets, one that sends more allocates.
// A pool belongs to one simulation (the sweep runner executes whole
// simulations on separate goroutines) and to one domain of it at a
// time; a nil *PacketPool degrades to plain allocation.
//
//fsvet:percore one pool per shard domain: only that domain's loop touches it during a window, and the engine coordinator between windows
type PacketPool struct {
	free []*Packet
	// Gets/News/Puts count pool traffic (News = Gets that had to
	// allocate), for tests and the allocation cross-check.
	Gets, News, Puts uint64
}

// Get returns a zeroed packet, recycling a parked one when available.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return &Packet{}
	}
	pp.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		p.pooled = false
		return p
	}
	pp.News++
	return &Packet{}
}

// Put parks p for reuse after its final receiver is done with it. The
// packet is cleared (dropping the payload reference — receivers copy
// payload bytes out, they never retain the slice). Putting nil, into a
// nil pool, or a packet already parked is a no-op, so hand-allocated
// packets and double-frees are harmless.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil || p.pooled {
		return
	}
	pp.Puts++
	// Retain the Frags backing array (capacity) across recycles so the
	// GRO merge path stays allocation-free in steady state; nil the
	// entries first so parked packets don't pin payload bytes.
	frags := p.Frags
	for i := range frags {
		frags[i] = nil
	}
	*p = Packet{pooled: true, Frags: frags[:0]}
	pp.free = append(pp.free, p)
}

// Parked reports how many packets wait in the free list.
func (pp *PacketPool) Parked() int {
	if pp == nil {
		return 0
	}
	return len(pp.free)
}

// MoveTo moves up to n (>= 0) parked packets to dst, which keeps them
// parked. Nothing is counted as a Get or a Put: the packets change
// pools, not owners.
func (pp *PacketPool) MoveTo(dst *PacketPool, n int) {
	keep := len(pp.free) - min(n, len(pp.free))
	dst.free = append(dst.free, pp.free[keep:]...)
	clear(pp.free[keep:])
	pp.free = pp.free[:keep]
}

// Len returns the total wire length in bytes (one header plus the
// logical payload; a GRO-merged super-segment counts its fragments).
func (p *Packet) Len() int { return HeaderBytes + p.PayloadLen() }

// Tuple returns the connection tuple from the receiver's perspective.
func (p *Packet) Tuple() FourTuple {
	return FourTuple{Src: p.Src, Dst: p.Dst}
}

// String renders a tcpdump-ish one-liner.
func (p *Packet) String() string {
	return fmt.Sprintf("%s > %s %s seq=%d ack=%d len=%d",
		p.Src, p.Dst, p.Flags, p.Seq, p.Ack, len(p.Payload))
}

// RSSHash is the NIC's receive-side-scaling flow hash. Real 82599
// hardware uses a Toeplitz hash over the 4-tuple; any uniform,
// per-flow-stable function reproduces the behaviour that matters
// (uniform spreading with no relation to where the consuming process
// runs), so we use a strong 64-bit mix.
func RSSHash(ft FourTuple) uint32 {
	h := uint64(ft.Src.IP)*0x9e3779b97f4a7c15 + uint64(ft.Dst.IP)
	h = (h ^ uint64(ft.Src.Port)<<16 ^ uint64(ft.Dst.Port)) * 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// --- Minimal HTTP/1.0 codec ---------------------------------------

// Default workload message sizes from the paper's introduction: the
// heavily invoked Weibo HTTP interface has ~600-byte requests and
// ~1200-byte responses, each fitting a single packet.
const (
	DefaultRequestLen  = 600
	DefaultResponseLen = 1200
)

// BuildRequest renders a GET request padded to exactly total bytes
// (>= the unpadded size) via an X-Pad header.
func BuildRequest(path string, total int) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "GET %s HTTP/1.0\r\nHost: bench.weibo.example\r\nUser-Agent: http_load 12mar2006\r\nConnection: close\r\n", path)
	base := b.Len() + len("\r\n")
	if pad := total - base - len("X-Pad: \r\n"); pad > 0 {
		fmt.Fprintf(&b, "X-Pad: %s\r\n", strings.Repeat("x", pad))
	}
	b.WriteString("\r\n")
	return []byte(b.String())
}

// ParseRequest extracts the method and path from a request. It
// returns an error on malformed input.
func ParseRequest(data []byte) (method, path string, err error) {
	s := string(data)
	eol := strings.Index(s, "\r\n")
	if eol < 0 {
		return "", "", fmt.Errorf("netproto: request without request line")
	}
	parts := strings.SplitN(s[:eol], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return "", "", fmt.Errorf("netproto: malformed request line %q", s[:eol])
	}
	if !strings.HasSuffix(s, "\r\n\r\n") {
		return "", "", fmt.Errorf("netproto: request not terminated")
	}
	return parts[0], parts[1], nil
}

// ValidRequest reports whether data holds a complete, well-formed
// request (METHOD SP PATH SP HTTP/... line, terminated header block)
// without allocating: it is the byte-level twin of ParseRequest for
// the server's per-request hot path, where converting the buffer to a
// string would put one heap allocation on every request served.
func ValidRequest(data []byte) bool {
	n := len(data)
	if n < 4 || data[n-4] != '\r' || data[n-3] != '\n' || data[n-2] != '\r' || data[n-1] != '\n' {
		return false
	}
	eol := -1
	for i := 0; i+1 < n; i++ {
		if data[i] == '\r' && data[i+1] == '\n' {
			eol = i
			break
		}
	}
	if eol < 0 {
		return false
	}
	sp1 := -1
	for i := 0; i < eol; i++ {
		if data[i] == ' ' {
			sp1 = i
			break
		}
	}
	if sp1 <= 0 {
		return false
	}
	sp2 := -1
	for i := sp1 + 1; i < eol; i++ {
		if data[i] == ' ' {
			sp2 = i
			break
		}
	}
	if sp2 < 0 || sp2 == sp1+1 {
		return false
	}
	const vers = "HTTP/"
	if eol-(sp2+1) < len(vers) {
		return false
	}
	for i := 0; i < len(vers); i++ {
		if data[sp2+1+i] != vers[i] {
			return false
		}
	}
	return true
}

// BuildResponse renders a 200 response whose total length is exactly
// total bytes, with a Content-Length-correct body. A total shorter than
// the header alone yields the header with an empty body.
func BuildResponse(total int) []byte {
	const headerFmt = "HTTP/1.0 200 OK\r\nServer: nginx/1.4\r\nContent-Type: text/html\r\nContent-Length: %0*d\r\nConnection: close\r\n\r\n"
	// Body plus Content-Length digits must fill what the rest of the
	// header leaves. Take the narrowest field the body fits in. Where
	// one more body byte would need one more digit (a room of 11, 102,
	// 1003, ...), no unpadded length fits, and the body, one digit
	// shorter than its field, is zero-padded (RFC 9110 allows it).
	room := total - (len(fmt.Sprintf(headerFmt, 0, 0)) - 1)
	width, body := 1, room-1
	for body > 0 && len(strconv.Itoa(body)) > width {
		width++
		body = room - width
	}
	if body < 0 {
		body = 0
	}
	return []byte(fmt.Sprintf(headerFmt, width, body) + strings.Repeat("b", body))
}

// ParseResponse extracts the status code and body length, validating
// Content-Length against the actual body.
func ParseResponse(data []byte) (status int, bodyLen int, err error) {
	s := string(data)
	headEnd := strings.Index(s, "\r\n\r\n")
	if headEnd < 0 {
		return 0, 0, fmt.Errorf("netproto: response without header terminator")
	}
	lines := strings.Split(s[:headEnd], "\r\n")
	first := strings.SplitN(lines[0], " ", 3)
	if len(first) < 2 || !strings.HasPrefix(first[0], "HTTP/") {
		return 0, 0, fmt.Errorf("netproto: malformed status line %q", lines[0])
	}
	status, err = strconv.Atoi(first[1])
	if err != nil {
		return 0, 0, fmt.Errorf("netproto: bad status code: %v", err)
	}
	body := s[headEnd+4:]
	for _, ln := range lines[1:] {
		if v, ok := strings.CutPrefix(ln, "Content-Length: "); ok {
			want, err := strconv.Atoi(v)
			if err != nil {
				return 0, 0, fmt.Errorf("netproto: bad Content-Length: %v", err)
			}
			if want != len(body) {
				return 0, 0, fmt.Errorf("netproto: Content-Length %d != body %d", want, len(body))
			}
		}
	}
	return status, len(body), nil
}
