package netproto

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestIPv4String(t *testing.T) {
	ip := IPv4(10, 0, 1, 200)
	if got := ip.String(); got != "10.0.1.200" {
		t.Errorf("String() = %q", got)
	}
}

func TestPortClassification(t *testing.T) {
	if !Port(80).IsWellKnown() {
		t.Error("port 80 should be well-known")
	}
	if !Port(1023).IsWellKnown() {
		t.Error("port 1023 should be well-known")
	}
	if Port(1024).IsWellKnown() {
		t.Error("port 1024 should not be well-known")
	}
	if Port(40000).IsWellKnown() {
		t.Error("ephemeral port should not be well-known")
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{IPv4(192, 168, 0, 1), 8080}
	if got := a.String(); got != "192.168.0.1:8080" {
		t.Errorf("String() = %q", got)
	}
}

func TestFourTupleReversed(t *testing.T) {
	ft := FourTuple{
		Src: Addr{IPv4(1, 1, 1, 1), 1234},
		Dst: Addr{IPv4(2, 2, 2, 2), 80},
	}
	r := ft.Reversed()
	if r.Src != ft.Dst || r.Dst != ft.Src {
		t.Errorf("Reversed() = %+v", r)
	}
	if r.Reversed() != ft {
		t.Error("double reversal changed the tuple")
	}
}

func TestFourTupleHashStable(t *testing.T) {
	ft := FourTuple{
		Src: Addr{IPv4(1, 2, 3, 4), 5555},
		Dst: Addr{IPv4(5, 6, 7, 8), 80},
	}
	if ft.Hash() != ft.Hash() {
		t.Error("Hash not deterministic")
	}
}

func TestFourTupleHashSpreads(t *testing.T) {
	// Property: flows differing only in source port should spread
	// across hash buckets roughly uniformly.
	buckets := make([]int, 16)
	for p := 0; p < 4096; p++ {
		ft := FourTuple{
			Src: Addr{IPv4(10, 0, 0, 1), Port(32768 + p)},
			Dst: Addr{IPv4(10, 0, 0, 2), 80},
		}
		buckets[ft.Hash()%16]++
	}
	for i, n := range buckets {
		if n < 128 || n > 384 { // expect 256 +- 50%
			t.Errorf("bucket %d has %d flows, severe skew", i, n)
		}
	}
}

func TestFlags(t *testing.T) {
	f := SYN | ACK
	if !f.Has(SYN) || !f.Has(ACK) || f.Has(FIN) {
		t.Errorf("flag checks wrong for %v", f)
	}
	if got := f.String(); got != "SYN|ACK" {
		t.Errorf("String() = %q", got)
	}
	if got := Flags(0).String(); got != "-" {
		t.Errorf("empty flags String() = %q", got)
	}
}

func TestPacketLenAndTuple(t *testing.T) {
	p := &Packet{
		Src:     Addr{IPv4(1, 1, 1, 1), 40000},
		Dst:     Addr{IPv4(2, 2, 2, 2), 80},
		Flags:   PSH | ACK,
		Payload: make([]byte, 600),
	}
	if p.Len() != 640 {
		t.Errorf("Len() = %d, want 640", p.Len())
	}
	tu := p.Tuple()
	if tu.Src != p.Src || tu.Dst != p.Dst {
		t.Errorf("Tuple() = %+v", tu)
	}
	if !strings.Contains(p.String(), "ACK|PSH") {
		t.Errorf("String() = %q", p.String())
	}
}

func TestRSSHashPerFlowStable(t *testing.T) {
	f := func(sip, dip uint32, sp, dp uint16) bool {
		ft := FourTuple{
			Src: Addr{IP(sip), Port(sp)},
			Dst: Addr{IP(dip), Port(dp)},
		}
		return RSSHash(ft) == RSSHash(ft)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRSSHashUniform(t *testing.T) {
	const cores = 24
	counts := make([]int, cores)
	for i := 0; i < 24000; i++ {
		ft := FourTuple{
			Src: Addr{IPv4(10, 0, byte(i>>8), byte(i)), Port(32768 + i%28000)},
			Dst: Addr{IPv4(10, 1, 0, 1), 80},
		}
		counts[int(RSSHash(ft))%cores]++
	}
	for c, n := range counts {
		if n < 700 || n > 1300 { // expect 1000 +- 30%
			t.Errorf("core %d got %d flows from RSS, severe skew", c, n)
		}
	}
}

func TestBuildRequestExactLength(t *testing.T) {
	for _, total := range []int{200, DefaultRequestLen, 1000} {
		req := BuildRequest("/hot/interface", total)
		if len(req) != total {
			t.Errorf("BuildRequest(%d) produced %d bytes", total, len(req))
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := BuildRequest("/index.html", DefaultRequestLen)
	method, path, err := ParseRequest(req)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if method != "GET" || path != "/index.html" {
		t.Errorf("parsed %q %q", method, path)
	}
}

func TestParseRequestErrors(t *testing.T) {
	cases := [][]byte{
		[]byte(""),
		[]byte("GET /\r\n\r\n"),                 // no HTTP version
		[]byte("GET / HTTP/1.0\r\nHost: x\r\n"), // unterminated
		[]byte("garbage without line terminator"),
	}
	for _, c := range cases {
		if _, _, err := ParseRequest(c); err == nil {
			t.Errorf("ParseRequest(%q) succeeded", c)
		}
	}
}

func TestBuildResponseExactLength(t *testing.T) {
	for _, total := range []int{256, DefaultResponseLen, 4096} {
		resp := BuildResponse(total)
		if len(resp) != total {
			t.Errorf("BuildResponse(%d) produced %d bytes", total, len(resp))
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := BuildResponse(DefaultResponseLen)
	status, bodyLen, err := ParseResponse(resp)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if status != 200 {
		t.Errorf("status = %d", status)
	}
	if bodyLen <= 0 || bodyLen >= DefaultResponseLen {
		t.Errorf("bodyLen = %d", bodyLen)
	}
}

func TestParseResponseValidatesContentLength(t *testing.T) {
	bad := []byte("HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\nabc")
	if _, _, err := ParseResponse(bad); err == nil {
		t.Error("mismatched Content-Length accepted")
	}
	if _, _, err := ParseResponse([]byte("no header end")); err == nil {
		t.Error("missing terminator accepted")
	}
	if _, _, err := ParseResponse([]byte("NOTHTTP 200\r\n\r\n")); err == nil {
		t.Error("bad status line accepted")
	}
}

func TestResponseLengthProperty(t *testing.T) {
	// Property: for every sane total, BuildResponse emits exactly that
	// many bytes and the result parses. The walk crosses the
	// Content-Length digit boundaries at 202 and 1103, where the body
	// needs a zero-padded field; 10104 is the next one.
	check := func(total int) {
		resp := BuildResponse(total)
		if len(resp) != total {
			t.Fatalf("BuildResponse(%d) is %d bytes", total, len(resp))
		}
		if _, _, err := ParseResponse(resp); err != nil {
			t.Fatalf("BuildResponse(%d) does not parse: %v", total, err)
		}
	}
	for total := 120; total < 4120; total++ {
		check(total)
	}
	check(10104)
}
