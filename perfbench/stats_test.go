package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestBucketCoversValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(63))
		b := bucketOf(v)
		lo, w := bucketRange(b)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("value %d in bucket %d = [%g, %g)", v, b, lo, lo+w)
		}
		if v >= 2<<subBits && w/lo > 1.0/(1<<subBits) {
			t.Fatalf("bucket %d for %d is %g wide at %g", b, v, w, lo)
		}
	}
	if got := bucketOf(math.MaxUint64); got >= histSize {
		t.Fatalf("largest value maps past the histogram: %d", got)
	}
}

// exactPercentile is the linear-interpolation percentile of sorted samples.
func exactPercentile(s []float64, p float64) float64 {
	r := p / 100 * float64(len(s)-1)
	k := int(r)
	if k+1 >= len(s) {
		return s[k]
	}
	return s[k] + (r-float64(k))*(s[k+1]-s[k])
}

func TestHistPercentileMatchesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := newHist()
	var xs []float64
	for i := 0; i < 50000; i++ {
		v := int64(math.Exp(rng.NormFloat64()*1.5 + 9)) // ~8 µs median, long tail
		h.add(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9} {
		got, want := h.percentile(p), exactPercentile(xs, p)
		if math.Abs(got-want) > want/(1<<subBits)+1 {
			t.Errorf("p%g = %g, samples give %g", p, got, want)
		}
	}
	var over uint64
	for _, x := range xs {
		if x >= 1e6 {
			over++
		}
	}
	if h.Over1ms != over {
		t.Errorf("over 1ms: %d, samples give %d", h.Over1ms, over)
	}
}

func TestHistMerge(t *testing.T) {
	a, b, all := newHist(), newHist(), newHist()
	for i := int64(0); i < 1000; i++ {
		a.add(i * 7)
		b.add(i * 13)
		all.add(i * 7)
		all.add(i * 13)
	}
	a.merge(b)
	if a.N != all.N || a.percentile(50) != all.percentile(50) || a.percentile(99) != all.percentile(99) {
		t.Fatalf("merged histogram differs from the pooled one")
	}
}

// TestReportable: the highest percentile a run reports is the highest
// with at least ten samples beyond it.
func TestReportable(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		p    float64
		want bool
	}{
		{19, 50, false},  // 9.5 samples above the median
		{20, 50, true},   // 10 above the median
		{999, 99, false}, // 9.99 above p99
		{1000, 99, true}, // 10 above p99
		{9999, 99.9, false},
		{10000, 99.9, true},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), whose results are listed here.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1.5, 9.25, 3, 7.5, 2}, [3]float64{1.875, 4, 7.9375}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two overlapping children cover [10, 50); a third spills past
		// the parent's end and covers only [90, 100) of it.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		// A span of another operation is no child of anyone here.
		{ID: 6, Name: "other", Start: 40, End: 60},
	}
	got := selfTimes(spans, nil)
	want := []int64{100 - 40 - 10, 20, 30, 30 - 10, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerSelfTimeNesting(t *testing.T) {
	tr := newTracer(time.Now())
	tr.beginOp("op")
	h := tr.begin("call")
	g := tr.begin("guard")
	tr.end(g)
	tr.end(h)
	tr.endOp(true)
	op, call, guard := tr.stats["op"], tr.stats["call"], tr.stats["guard"]
	if op.Calls != 1 || call.Calls != 1 || guard.Calls != 1 {
		t.Fatalf("calls: op %d call %d guard %d", op.Calls, call.Calls, guard.Calls)
	}
	if call.SelfNs != call.TotalNs-guard.TotalNs || op.SelfNs != op.TotalNs-call.TotalNs {
		t.Fatalf("self times do not subtract children: %+v %+v %+v", op, call, guard)
	}
	if len(tr.log) != 3 || tr.log[1].Parent != tr.log[0].ID || tr.log[2].Parent != tr.log[1].ID {
		t.Fatalf("span log does not link parents: %+v", tr.log)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics a run prints the
// same: names, units, and the workloads the benchmark accepts.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := newWorkload(w.Name, 1); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the run prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the run prints %s [%s]", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSetupWatchdog: a step that overruns its bound is abandoned with a
// timeout counted and every goroutine's stack kept, the blocked one
// included; a step that finishes in time is timed.
func TestSetupWatchdog(t *testing.T) {
	stepBounds["test-hang"] = 20 * time.Millisecond
	stepBounds["test-ok"] = time.Second
	defer delete(stepBounds, "test-hang")
	defer delete(stepBounds, "test-ok")
	st := &setupRun{steps: map[string]float64{}}
	release := make(chan struct{})
	defer close(release)
	if err := st.step("test-hang", func() error { <-release; return nil }); err != errSetupTimeout {
		t.Fatalf("hung step returned %v", err)
	}
	if st.timeouts != 1 || len(st.stacks) != 1 || !strings.Contains(st.stacks[0], "TestSetupWatchdog") {
		t.Fatalf("timeouts %d, stacks %q", st.timeouts, st.stacks)
	}
	if err := st.step("test-ok", func() error { return nil }); err != nil || st.timeouts != 1 {
		t.Fatalf("quick step: %v, timeouts %d", err, st.timeouts)
	}
	if _, ok := st.steps["test-ok"]; !ok {
		t.Fatal("quick step was not timed")
	}
}
