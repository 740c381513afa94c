package vet

import (
	"fmt"
	"sort"

	"fastsocket/internal/tcp"
)

// FSMSpec is the committed model of one state machine: the legal
// transition relation the fsm pass diffs the extracted static relation
// against. The spec is code, not configuration — it imports the real
// state constants, so renumbering a state breaks the build instead of
// silently skewing the model.
type FSMSpec struct {
	// Type is the fully qualified state type ("fastsocket/internal/tcp.State").
	// A spec whose type is absent from the loaded program is skipped,
	// which is how the corpus spec stays inert on real-module runs.
	Type string
	// States names every value, indexed by the constant's value.
	States []string
	// Birth is the state a freshly constructed owner must carry.
	Birth int
	// Transitions is the legal relation.
	Transitions []SpecTransition
}

// SpecTransition is one legal edge with its justification on record.
type SpecTransition struct {
	From, To int
	// Kind is "rfc793" for the standard diagram or "extension" for an
	// audited model extension.
	Kind string
	// Why is the one-line justification for the edge.
	Why string
	// Defensive marks edges that exist for robustness (sweeps, double
	// close) rather than protocol flow: the cross-check's coverage gate
	// does not require the experiment mix to provoke them.
	Defensive bool
}

// StateName renders a state value, tolerating out-of-range.
func (s *FSMSpec) StateName(v int) string {
	if v >= 0 && v < len(s.States) {
		return s.States[v]
	}
	return fmt.Sprintf("State(%d)", v)
}

// tcpStates builds the state-name table from the real constants, so the
// spec can never drift from tcp.State's String() rendering.
func tcpStates() []string {
	out := make([]string, tcp.NumStates)
	for i := range out {
		out[i] = tcp.State(i).String()
	}
	return out
}

// TCPSpec is the audited model of internal/tcp's connection state
// machine: RFC 793's diagram plus this kernel's teardown extensions.
func TCPSpec() *FSMSpec {
	const (
		rfc = "rfc793"
		ext = "extension"
	)
	s := &FSMSpec{
		Type:   ModPath + "/internal/tcp.State",
		States: tcpStates(),
		Birth:  int(tcp.Closed),
	}
	add := func(from, to tcp.State, kind, why string, defensive bool) {
		s.Transitions = append(s.Transitions, SpecTransition{
			From: int(from), To: int(to), Kind: kind, Why: why, Defensive: defensive,
		})
	}

	// Openings.
	add(tcp.Closed, tcp.Listen, rfc, "passive open: listen()", false)
	add(tcp.Closed, tcp.SynSent, rfc, "active open: connect() sends SYN", false)
	add(tcp.Closed, tcp.SynRcvd, rfc, "passive child born for an incoming SYN (RFC's LISTEN->SYN_RCVD; the child TCB starts CLOSED)", false)
	add(tcp.Closed, tcp.Established, ext, "syncookie reconstruction: a validated cookie ACK rebuilds the connection with no SYN_RCVD stage", false)

	// Handshake completion.
	add(tcp.SynSent, tcp.Established, rfc, "SYN-ACK received, handshake ACK sent", false)
	add(tcp.SynRcvd, tcp.Established, rfc, "handshake ACK received", false)

	// Close initiation.
	add(tcp.Established, tcp.FinWait1, rfc, "active close: local close() sends FIN", false)
	add(tcp.Established, tcp.CloseWait, rfc, "passive close: peer's FIN received", false)
	add(tcp.CloseWait, tcp.LastAck, rfc, "local close() after peer's FIN sends our FIN", false)

	// Active-close progressions.
	add(tcp.FinWait1, tcp.FinWait2, rfc, "our FIN acknowledged, peer still open", false)
	add(tcp.FinWait1, tcp.Closing, rfc, "simultaneous close: peer's FIN before our FIN's ACK", false)
	add(tcp.FinWait2, tcp.TimeWait, rfc, "peer's FIN received, final ACK sent", false)
	add(tcp.Closing, tcp.TimeWait, rfc, "our FIN acknowledged after a simultaneous close", false)

	// Terminations. RFC 793 closes from every state via RST or user
	// abort; this kernel adds lifecycle sweeps (host crash, worker
	// death) that tear down whatever state a socket is in.
	add(tcp.LastAck, tcp.Closed, rfc, "our final FIN acknowledged", false)
	add(tcp.TimeWait, tcp.Closed, rfc, "2MSL expiry reaps the socket", false)
	add(tcp.SynSent, tcp.Closed, rfc, "RST, SYN-retry exhaustion (ETIMEDOUT), or close() of a half-open connect", false)
	add(tcp.SynRcvd, tcp.Closed, rfc, "RST, retransmit exhaustion, or listener teardown aborts the half-open child", false)
	add(tcp.Listen, tcp.Closed, rfc, "listener closed (process exit, host crash, local clone removal)", false)
	add(tcp.Established, tcp.Closed, ext, "abort path: RST, retransmit exhaustion, or lifecycle sweep skips the FIN exchange", false)
	add(tcp.Closed, tcp.Closed, ext, "double close()/abort of an already-dead socket is a no-op transition", true)
	add(tcp.FinWait1, tcp.Closed, ext, "abort (RST or sweep) while awaiting our FIN's ACK", true)
	add(tcp.FinWait2, tcp.Closed, ext, "abort (RST or sweep) while awaiting the peer's FIN", true)
	add(tcp.CloseWait, tcp.Closed, ext, "abort (RST or sweep) before the app closes its half", true)
	add(tcp.Closing, tcp.Closed, ext, "abort (RST or sweep) during a simultaneous close", true)

	sortSpec(s)
	return s
}

// corpusSpec is the model for the golden-corpus state machine
// (internal/vet/testdata/corpus/fsm); its type exists only under the
// test overlay, so real-module runs skip it.
func corpusSpec() *FSMSpec {
	s := &FSMSpec{
		Type:   ModPath + "/internal/kernel/vetcorpus_fsm.CState",
		States: []string{"IDLE", "RUN", "DONE", "GHOST"},
		Birth:  0,
		Transitions: []SpecTransition{
			{From: 0, To: 1, Kind: "rfc793", Why: "corpus: start"},
			{From: 1, To: 2, Kind: "rfc793", Why: "corpus: finish"},
			{From: 2, To: 0, Kind: "extension", Why: "corpus: recycle", Defensive: true},
			// GHOST is deliberately unreachable: the fsm pass must
			// report a spec transition with no static site.
			{From: 2, To: 3, Kind: "extension", Why: "corpus: spec edge with no implementation"},
		},
	}
	sortSpec(s)
	return s
}

func sortSpec(s *FSMSpec) {
	sort.Slice(s.Transitions, func(i, j int) bool {
		a, b := s.Transitions[i], s.Transitions[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
}

// FSMSpecs returns every committed machine model, deterministically
// ordered by type.
func FSMSpecs() []*FSMSpec {
	specs := []*FSMSpec{TCPSpec(), corpusSpec()}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Type < specs[j].Type })
	return specs
}
