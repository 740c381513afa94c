package stats

import (
	"fmt"
	"sort"
	"strings"
)

// FSMMaxStates bounds the state numbering an FSMTrace can record; the
// TCP machine uses 11 of them, and the headroom keeps the matrix
// layout stable if model extensions add states.
const FSMMaxStates = 16

// FSMTrace is the runtime half of the fsvet fsm cross-check: a dense
// old-state × new-state counter matrix fed by every Sock.Transition call
// of one kernel. Recording is a single array increment — no
// allocation, no branches beyond the nil guard at the call site — so
// the tracer stays on even in measured runs. The matrix is per-kernel
// state, owned by the kernel's simulation domain exactly like its TCB
// tables.
//
//fsvet:percore per-kernel matrix owned by the kernel's shard domain, mutated only from under the socket locks of its own event loop
type FSMTrace struct {
	Counts [FSMMaxStates][FSMMaxStates]uint64
}

// Record counts one old→new transition. Out-of-range states (a model
// bug) saturate into the last row/column rather than panicking on the
// hot path; the cross-check reports them as unknown-state edges.
func (tr *FSMTrace) Record(from, to int) {
	if from < 0 || from >= FSMMaxStates {
		from = FSMMaxStates - 1
	}
	if to < 0 || to >= FSMMaxStates {
		to = FSMMaxStates - 1
	}
	tr.Counts[from][to]++
}

// Merge folds o's counts into tr (aggregating kernels of one bed, or
// beds of one experiment mix).
func (tr *FSMTrace) Merge(o *FSMTrace) {
	if o == nil {
		return
	}
	for i := range o.Counts {
		for j := range o.Counts[i] {
			tr.Counts[i][j] += o.Counts[i][j]
		}
	}
}

// Total returns the number of transitions recorded.
func (tr *FSMTrace) Total() uint64 {
	var n uint64
	for i := range tr.Counts {
		for j := range tr.Counts[i] {
			n += tr.Counts[i][j]
		}
	}
	return n
}

// FSMEdge is one observed transition with its count, rendered with
// the state names the caller supplies.
type FSMEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count uint64 `json:"count"`
}

// Edges flattens the matrix into the non-zero transitions, named via
// names (index = state value; out-of-range indices render as
// "State(n)") and sorted by (from, to) name for deterministic output.
func (tr *FSMTrace) Edges(names []string) []FSMEdge {
	name := func(i int) string {
		if i >= 0 && i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("State(%d)", i)
	}
	var edges []FSMEdge
	for i := range tr.Counts {
		for j := range tr.Counts[i] {
			if c := tr.Counts[i][j]; c > 0 {
				edges = append(edges, FSMEdge{From: name(i), To: name(j), Count: c})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	return edges
}

// FormatEdges renders an edge list as the sorted JSON block committed
// in FSMGRAPH_observed.json and printed by fsnetstat -fsmgraph. Plain
// string assembly keeps the rendering byte-stable.
func FormatEdges(edges []FSMEdge) []byte {
	var b strings.Builder
	b.WriteString("[\n")
	for i, e := range edges {
		fmt.Fprintf(&b, "  {\"from\": %q, \"to\": %q, \"count\": %d}", e.From, e.To, e.Count)
		if i < len(edges)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("]\n")
	return []byte(b.String())
}
