package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"fastsocket/internal/app"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
)

// spanKind names one traced layer boundary.
type spanKind int

const (
	spanFabricSend    spanKind = iota // Network/Port.Send, including shard.Engine.Post
	spanKernelDeliver                 // kernel.Deliver: NIC steer, ring push, NAPI raise
	spanClientRx                      // HTTPLoad.Deliver: the client's TCP
	spanBackendRx                     // Backend.Deliver
	spanEvents                        // Process.OnEvents: the application and its syscalls
	numSpans
)

var spanNames = [numSpans]string{
	"app.fabric_send", "kernel.deliver", "app.client_rx", "app.backend_rx", "app.events",
}

// sampleMod keeps full span records for one flow in sampleMod: the
// flows whose canonical tuple hash is 0 modulo it.
const sampleMod = 256

// timeEvery is the share of top-level spans whose whole subtree is
// timed: one in timeEvery, drawn at random. A clock read costs ~33 ns
// on the reference host, and the per-packet mixes open ~50 spans per
// request, so timing every span would slow them by ~15%. Each layer's
// total is its timed self time scaled by all its calls over its timed
// calls.
const timeEvery = 8

// frame is one open span on the tracer's stack.
type frame struct {
	kind  spanKind
	id    uint64
	timed bool  // counted in the layer totals (the whole subtree is)
	start int64 // clock reading at begin, when timed or recorded
	child int64 // time covered by already-closed child spans
	rec   int   // index into records, or -1 when the flow is not sampled
}

// spanTotal accumulates one layer's closed spans.
type spanTotal struct {
	calls uint64 // every span
	timed uint64 // spans in timed subtrees
	self  int64  // ns over the timed spans: durations minus child spans
}

// selfNs estimates the layer's total self time over all its calls.
func (s spanTotal) selfNs() float64 {
	return ratio(float64(s.self)*float64(s.calls), float64(s.timed))
}

// record is the full trace of one sampled span.
type record struct {
	ID         uint64 `json:"id"`
	Parent     uint64 `json:"parent"` // 0 for a top-level span
	Name       string `json:"name"`
	ParentName string `json:"parent_name,omitempty"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Flow       string `json:"flow"`
	flow       netproto.FourTuple
}

// tracer times the spans of one single-threaded simulation. Spans nest
// strictly (a client Deliver sends ACKs inside itself), so a stack
// turns durations into self time.
type tracer struct {
	clock   func() int64 // ns since an arbitrary origin
	every   uint64       // time one top-level span in every
	rng     uint64       // xorshift state for that draw
	origin  int64        // clock reading at the last reset
	stack   []frame
	nextID  uint64
	totals  [numSpans]spanTotal
	records []record
}

func newTracer() *tracer {
	epoch := time.Now()
	return newTracerWithClock(func() int64 { return int64(time.Since(epoch)) }, timeEvery)
}

func newTracerWithClock(clock func() int64, every uint64) *tracer {
	return &tracer{clock: clock, every: every, rng: 0x9e3779b97f4a7c15, stack: make([]frame, 0, 16)}
}

// reset starts a measurement: totals and records restart from zero and
// record times count from now. No span may be open.
func (t *tracer) reset() {
	if len(t.stack) != 0 {
		panic("fsperf: tracer reset inside a span")
	}
	t.totals = [numSpans]spanTotal{}
	t.records = t.records[:0]
	t.origin = t.clock()
}

func (t *tracer) begin(k spanKind, flow netproto.FourTuple, sampled bool) {
	t.nextID++
	t.totals[k].calls++
	f := frame{kind: k, id: t.nextID, rec: -1}
	n := len(t.stack)
	if n > 0 {
		f.timed = t.stack[n-1].timed
	} else {
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 7
		t.rng ^= t.rng << 17
		f.timed = t.rng%t.every == 0
	}
	if f.timed || sampled {
		f.start = t.clock()
	}
	if sampled {
		r := record{ID: f.id, Name: spanNames[k], Start: f.start - t.origin, flow: flow}
		if n > 0 {
			r.Parent = t.stack[n-1].id
			r.ParentName = spanNames[t.stack[n-1].kind]
		}
		f.rec = len(t.records)
		t.records = append(t.records, r)
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	if !f.timed && f.rec < 0 {
		return
	}
	now := t.clock()
	dur := now - f.start
	if f.timed {
		tot := &t.totals[f.kind]
		tot.timed++
		tot.self += dur - f.child
		if n > 0 {
			t.stack[n-1].child += dur
		}
	}
	if f.rec >= 0 {
		t.records[f.rec].End = now - t.origin
	}
}

// flowOf returns a packet's canonical 4-tuple (lower endpoint first, so
// both directions of a connection share it) and whether the flow is
// sampled for full records.
func flowOf(p *netproto.Packet) (netproto.FourTuple, bool) {
	a, b := p.Src, p.Dst
	if b.IP < a.IP || (b.IP == a.IP && b.Port < a.Port) {
		a, b = b, a
	}
	ft := netproto.FourTuple{Src: a, Dst: b}
	return ft, ft.Hash()%sampleMod == 0
}

// tracedWire wraps the fabric handle an endpoint transmits through;
// Attach wraps the endpoint itself, so the endpoint's receive path is
// traced as span rx.
type tracedWire struct {
	inner app.Wire
	tr    *tracer
	rx    spanKind
}

func (w *tracedWire) Send(p *netproto.Packet) {
	flow, sampled := flowOf(p)
	w.tr.begin(spanFabricSend, flow, sampled)
	w.inner.Send(p)
	w.tr.end()
}

func (w *tracedWire) Attach(ep app.Endpoint, ips ...netproto.IP) {
	w.inner.Attach(&tracedEndpoint{inner: ep, tr: w.tr, kind: w.rx}, ips...)
}

// tracedEndpoint wraps an endpoint's Deliver. The flow is read before
// the call: the endpoint may recycle the packet.
type tracedEndpoint struct {
	inner app.Endpoint
	tr    *tracer
	kind  spanKind
}

func (e *tracedEndpoint) Deliver(p *netproto.Packet) {
	flow, sampled := flowOf(p)
	e.tr.begin(e.kind, flow, sampled)
	e.inner.Deliver(p)
	e.tr.end()
}

// wrapKernel traces a kernel already attached to port: its transmit
// hook, and its Deliver by re-attaching a wrapper for its IPs.
func (t *tracer) wrapKernel(port *app.Port, k *kernel.Kernel) {
	send := k.SendToWire
	k.SendToWire = func(p *netproto.Packet) {
		flow, sampled := flowOf(p)
		t.begin(spanFabricSend, flow, sampled)
		send(p)
		t.end()
	}
	port.Attach(&tracedEndpoint{inner: k, tr: t, kind: spanKernelDeliver}, k.IPs()...)
}

// traceDump is the -trace file: one section per traced workload.
type traceDump struct {
	Seed      uint64         `json:"seed"`
	Sample    string         `json:"sample"`
	Workloads []traceSection `json:"workloads"`
}

type traceSection struct {
	Workload string                `json:"workload"`
	Totals   map[string]traceTotal `json:"totals"`
	Spans    []record              `json:"spans"`
}

type traceTotal struct {
	Calls  uint64  `json:"calls"`
	Timed  uint64  `json:"timed"`
	SelfNs float64 `json:"self_ns"` // estimated over all calls
}

// section renders the tracer's current measurement for the trace file.
func (t *tracer) section(workload string) traceSection {
	s := traceSection{Workload: workload, Totals: map[string]traceTotal{}, Spans: t.records}
	for k, tot := range t.totals {
		s.Totals[spanNames[k]] = traceTotal{Calls: tot.calls, Timed: tot.timed, SelfNs: tot.selfNs()}
	}
	for i := range s.Spans {
		f := s.Spans[i].flow
		s.Spans[i].Flow = fmt.Sprintf("%s-%s", f.Src, f.Dst)
	}
	return s
}

func writeTrace(path string, d traceDump) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
