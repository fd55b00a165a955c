package main

import (
	"math"
	"math/bits"
	"sort"
)

// The benchmark's own statistics: a log-linear latency histogram that
// workers fill without storing samples, percentile and quartile rules, and
// span self time. stats_test.go checks each against brute force.

// subBits sets the histogram's resolution: every power-of-two range of
// nanoseconds is split into 1<<subBits buckets, so a bucket spans at most
// 1/128 (0.8%) of its values, and values below 256 ns are exact.
const subBits = 7

// histSize covers every uint64 value.
const histSize = (64 - subBits + 1) << subBits

// hist counts latencies in nanoseconds.
type hist struct {
	Counts []uint64 `json:"counts"`
	N      uint64   `json:"n"`
	// Over1ms counts samples of 1 ms or more, exactly.
	Over1ms uint64 `json:"over_1ms"`
}

func newHist() *hist { return &hist{Counts: make([]uint64, histSize)} }

// bucketOf maps a value to its bucket: values below 2<<subBits map to
// themselves; above, the top subBits+1 significant bits select the bucket.
func bucketOf(v uint64) int {
	if v < 2<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return shift<<subBits + int(v>>uint(shift))
}

// bucketRange returns the lowest value of bucket i and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < 2<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	top := i - shift<<subBits
	return math.Ldexp(float64(top), shift), math.Ldexp(1, shift)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Counts[bucketOf(uint64(ns))]++
	h.N++
	if ns >= 1e6 {
		h.Over1ms++
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.N += o.N
	h.Over1ms += o.Over1ms
}

// rankValue estimates the k-th smallest sample (0-based), spreading a
// bucket's samples evenly across its width.
func (h *hist) rankValue(k uint64) float64 {
	var cum uint64
	for i, c := range h.Counts {
		if c == 0 || cum+c <= k {
			cum += c
			continue
		}
		lo, w := bucketRange(i)
		return lo + w*(float64(k-cum)+0.5)/float64(c)
	}
	return math.NaN()
}

// percentile returns the p-th percentile (0 < p < 100) by linear
// interpolation between the two nearest ranks, as numpy's default does.
func (h *hist) percentile(p float64) float64 {
	if h.N == 0 {
		return math.NaN()
	}
	r := p / 100 * float64(h.N-1)
	k := uint64(r)
	v := h.rankValue(k)
	if k+1 < h.N {
		v += (r - float64(k)) * (h.rankValue(k+1) - v)
	}
	return v
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// reportable reports whether the p-th percentile of n samples has at least
// minBeyond samples beyond it; a run reports no percentile higher than that.
func reportable(n uint64, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// with Python's statistics.quantiles(xs, n=4) (its default "exclusive"
// method), the rule the benchmark's spread is judged by. It needs at least
// two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// span is one timed call recorded by the benchmark's tracer. Times are
// nanoseconds since the tracer's epoch; Parent is 0 for an operation's root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Children may overlap one another and may
// spill past their parent; only their union inside the parent counts. The
// result reuses out's storage.
func selfTimes(spans []span, out []int64) []int64 {
	type interval struct{ a, b int64 }
	out = out[:0]
	var buf [16]interval
	for i := range spans {
		p := &spans[i]
		kids := buf[:0]
		for j := range spans {
			c := &spans[j]
			if j == i || p.ID == 0 || c.Parent != p.ID {
				continue
			}
			kids = append(kids, interval{c.Start, c.End})
			for k := len(kids) - 1; k > 0 && kids[k].a < kids[k-1].a; k-- {
				kids[k], kids[k-1] = kids[k-1], kids[k]
			}
		}
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			a, b := max(k.a, reach), min(k.b, p.End)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		out = append(out, p.End-p.Start-covered)
	}
	return out
}
