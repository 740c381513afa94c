package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
)

// tiny shrinks the run shape so a whole workload takes a fraction of a
// second; the simulated outcome is still checked the same way.
func tiny(trace bool, trials int) options {
	return options{seed: 1, trace: trace, shape: shape{
		warmup: 30 * sim.Millisecond, window: 2 * sim.Millisecond, windows: 2, minTrials: trials,
	}}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	var now int64
	tr := newTracerWithClock(func() int64 { return now }, 1)
	tr.reset()
	flow := netproto.FourTuple{Src: netproto.Addr{IP: 1, Port: 2}, Dst: netproto.Addr{IP: 3, Port: 4}}
	span := func(at int64, k spanKind) { now = at; tr.begin(k, flow, true) }
	end := func(at int64) { now = at; tr.end() }

	// A client receive [0,100) that sends twice: [10,30) and [40,45).
	span(0, spanClientRx)
	span(10, spanFabricSend)
	end(30)
	span(40, spanFabricSend)
	end(45)
	end(100)
	// Three deep: events [200,300) > send [210,260) > deliver [220,250).
	span(200, spanEvents)
	span(210, spanFabricSend)
	span(220, spanKernelDeliver)
	end(250)
	end(260)
	end(300)

	want := map[spanKind]spanTotal{
		spanClientRx:      {calls: 1, timed: 1, self: 100 - 20 - 5},
		spanFabricSend:    {calls: 3, timed: 3, self: 20 + 5 + (50 - 30)},
		spanKernelDeliver: {calls: 1, timed: 1, self: 30},
		spanEvents:        {calls: 1, timed: 1, self: 100 - 50},
	}
	var sum int64
	for k := spanKind(0); k < numSpans; k++ {
		if got := tr.totals[k]; got != want[k] {
			t.Errorf("%s: got %+v, want %+v", spanNames[k], got, want[k])
		}
		sum += tr.totals[k].self
	}
	// Self times partition the covered time: 100 + 100.
	if sum != 200 {
		t.Errorf("self times sum to %d, want 200", sum)
	}
	if len(tr.stack) != 0 {
		t.Fatalf("stack not empty: %d frames", len(tr.stack))
	}
	recs := tr.records
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	if recs[1].Parent != recs[0].ID || recs[1].ParentName != "app.client_rx" || recs[0].Parent != 0 {
		t.Errorf("send record parent = %d %q, want %d app.client_rx", recs[1].Parent, recs[1].ParentName, recs[0].ID)
	}
	if r := recs[5]; r.Name != "kernel.deliver" || r.Parent != recs[4].ID || r.Start != 220 || r.End != 250 {
		t.Errorf("innermost record = %+v", r)
	}
}

func TestSampledTimingScalesToEveryCall(t *testing.T) {
	var now int64
	tr := newTracerWithClock(func() int64 { return now }, timeEvery)
	tr.reset()
	// 1000 identical trees: a delivery of 100 ns holding a 30 ns send,
	// and a flow that is sampled for records in every tree.
	sampled := netproto.FourTuple{Src: netproto.Addr{IP: 9}}
	for i := int64(0); i < 1000; i++ {
		now = i * 1000
		tr.begin(spanKernelDeliver, netproto.FourTuple{}, false)
		now += 10
		tr.begin(spanFabricSend, sampled, true)
		now += 30
		tr.end()
		now += 60
		tr.end()
	}
	d, s := tr.totals[spanKernelDeliver], tr.totals[spanFabricSend]
	if d.calls != 1000 || s.calls != 1000 {
		t.Fatalf("calls %d, %d; want 1000 each", d.calls, s.calls)
	}
	if d.timed < 500/timeEvery || d.timed > 2000/timeEvery || s.timed != d.timed {
		t.Errorf("timed %d deliveries and %d sends; want the same ~1000/%d", d.timed, s.timed, timeEvery)
	}
	if d.selfNs() != 70*1000 || s.selfNs() != 30*1000 {
		t.Errorf("estimated self %v, %v; want 70000, 30000", d.selfNs(), s.selfNs())
	}
	if len(tr.records) != 1000 || tr.records[999].End-tr.records[999].Start != 30 {
		t.Errorf("sampled flow kept %d records; want all 1000 timed", len(tr.records))
	}
}

// benchSpec is the part of BENCHMARK.json the smoke test checks.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

// lastLine parses the result line printed last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestSmokeEveryWorkloadPrintsEveryMetricWithItsUnit(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, fsperf has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, fsperf %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			want, path := spec.EndToEnd, ""
			if trace {
				want, path = spec.PerLayer, filepath.Join(t.TempDir(), "trace.json")
			}
			var out, errOut bytes.Buffer
			if code := runWorkloads([]workload{w}, tiny(trace, 1), path, &out, &errOut); code != 0 {
				t.Errorf("%s traced=%v: exit status %d: %s", w.name, trace, code, errOut.String())
			}
			if trace {
				checkTraceFile(t, path, w.name)
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %s",
						w.name, trace, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s traced=%v: %s missing from the table", w.name, trace, m.Name)
				}
			}
		}
	}
}

func TestDigestMismatchFailsTheCommand(t *testing.T) {
	w, _ := lookupWorkload("short_fastsocket")
	o := tiny(false, 2)
	// One extra draw from the kernel's PRNG in the second trial shifts
	// every later random decision (ISNs, background cache misses).
	o.mutate = func(trial int, b *bed) {
		if trial == 1 {
			b.k.Rand().Uint64()
		}
	}
	var out, errOut bytes.Buffer
	if code := runWorkloads([]workload{w}, o, "", &out, &errOut); code != 1 {
		t.Fatalf("exit status %d, want 1\n%s", code, out.String())
	}
	if res := lastLine(t, out.String()); res.Correct {
		t.Errorf("result line reports correct despite the diverged trial")
	}
	if !strings.Contains(out.String(), "simulated digest") {
		t.Errorf("no digest failure reported:\n%s", out.String())
	}
}

func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, w := range workloads {
		o := tiny(true, 1)
		plain := runTrial(w, o, 0, false)
		traced := runTrial(w, o, 1, true)
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, traced.digest, plain.digest)
		}
		if traced.tracer.totals[spanKernelDeliver].calls == 0 || traced.tracer.totals[spanEvents].calls == 0 {
			t.Errorf("%s: traced run recorded no kernel or application spans: %+v", w.name, traced.tracer.totals)
		}
	}
}

// checkTraceFile asserts that a traced run wrote one well-formed
// section for the workload, with its layer totals.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var d traceDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	if len(d.Workloads) != 1 || d.Workloads[0].Workload != workload {
		t.Fatalf("trace sections %+v, want one for %s", d.Workloads, workload)
	}
	if d.Workloads[0].Totals["kernel.deliver"].Calls == 0 {
		t.Errorf("%s: trace totals show no kernel.deliver calls", workload)
	}
	for _, s := range d.Workloads[0].Spans {
		if s.End < s.Start || s.Flow == "" {
			t.Fatalf("%s: malformed span %+v", workload, s)
		}
	}
}
