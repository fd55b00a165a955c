// Command perfcompare summarizes paired runs of the repository benchmark,
// perfbench, made on two trees of the source: HEAD and the working tree,
// as make perfbench-compare runs them. It reads a directory holding one
// perfbench output per run, named NN-SEED-head.txt and NN-SEED-work.txt
// for pair NN run with seed SEED, and prints:
//
//   - every run's end-to-end metrics and its failed and attempted counts;
//   - per tree, each end-to-end metric's median, quartiles and min–max,
//     and how many pairs the working tree won (a tie wins for neither),
//     then each tree's failed and attempted operations;
//   - per tree, the median of each per-layer count perfbench prints with
//     every run, and the pairs the working tree won on it.
//
// The metrics, their order and which direction is better come from the
// benchmark declaration, BENCHMARK.json in the current directory. A run
// that printed no result (its run.sh exited early) is listed as such and
// left out of the medians and the pairs won. Quartiles follow Python's
// statistics.quantiles(xs, n=4), the rule perfbench judges spread by.
//
//	go run ./cmd/perfcompare DIR
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfcompare DIR")
		os.Exit(2)
	}
	if err := run("BENCHMARK.json", os.Args[1], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfcompare:", err)
		os.Exit(1)
	}
}

// metric is one metric the benchmark declares.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

type declaration struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// result is one perfbench run's output: the end-to-end metrics and counts
// of its last line, and the per-layer counts of its "layer" lines. ok is
// false when the run printed no result line.
type result struct {
	ok                bool
	failed, attempted uint64
	metrics           map[string]float64
	layers            map[string]float64
}

// pair is one seed run on both trees.
type pair struct {
	n          int
	seed       string
	head, work result
}

var sides = []string{"head", "work"}

func (p *pair) side(s string) *result {
	if s == "head" {
		return &p.head
	}
	return &p.work
}

func run(benchPath, dir string, w io.Writer) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var decl declaration
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %v", benchPath, err)
	}
	pairs, err := readPairs(dir)
	if err != nil {
		return err
	}
	printRuns(w, decl.EndToEnd, pairs)
	fmt.Fprintln(w)
	printSummary(w, decl.EndToEnd, pairs)
	fmt.Fprintln(w)
	printLayers(w, decl.PerLayer, pairs)
	return nil
}

// readPairs reads every NN-SEED-head.txt in dir with its NN-SEED-work.txt,
// in pair order.
func readPairs(dir string) ([]*pair, error) {
	heads, err := filepath.Glob(filepath.Join(dir, "*-head.txt"))
	if err != nil {
		return nil, err
	}
	var pairs []*pair
	for _, h := range heads {
		fields := strings.SplitN(strings.TrimSuffix(filepath.Base(h), "-head.txt"), "-", 2)
		n, err := strconv.Atoi(fields[0])
		if err != nil || len(fields) != 2 {
			return nil, fmt.Errorf("%s: want NN-SEED-head.txt", h)
		}
		p := &pair{n: n, seed: fields[1]}
		for _, s := range sides {
			f, err := os.Open(strings.TrimSuffix(h, "head.txt") + s + ".txt")
			if err != nil {
				return nil, err
			}
			*p.side(s), err = parse(f)
			f.Close()
			if err != nil {
				return nil, err
			}
		}
		pairs = append(pairs, p)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("%s: no runs", dir)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].n < pairs[j].n })
	return pairs, nil
}

// parse reads one perfbench output.
func parse(r io.Reader) (result, error) {
	res := result{layers: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if f := strings.Fields(line); len(f) == 4 && f[0] == "layer" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				res.layers[f[1]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	var report struct {
		Attempted uint64 `json:"attempted"`
		Failed    uint64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if json.Unmarshal([]byte(last), &report) != nil || report.Metrics == nil {
		return res, nil
	}
	res.ok, res.failed, res.attempted = true, report.Failed, report.Attempted
	res.metrics = map[string]float64{}
	for name, v := range report.Metrics {
		res.metrics[name] = v.Value
	}
	return res, nil
}

func printRuns(w io.Writer, metrics []metric, pairs []*pair) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "pair\tseed\ttree")
	for _, m := range metrics {
		fmt.Fprintf(tw, "\t%s", m.Name)
	}
	fmt.Fprintln(tw, "\tfailed/attempted")
	for _, p := range pairs {
		for _, s := range sides {
			r := p.side(s)
			fmt.Fprintf(tw, "%d\t%s\t%s", p.n, p.seed, s)
			for _, m := range metrics {
				v, ok := r.metrics[m.Name]
				if !ok {
					v = math.NaN()
				}
				fmt.Fprintf(tw, "\t%s", num(v))
			}
			if r.ok {
				fmt.Fprintf(tw, "\t%d/%d\n", r.failed, r.attempted)
			} else {
				fmt.Fprintln(tw, "\tno result")
			}
		}
	}
	tw.Flush()
}

func printSummary(w io.Writer, metrics []metric, pairs []*pair) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbetter\ttree\twon\tmedian\tquartiles\tmin–max")
	for _, m := range metrics {
		get := func(r *result) (float64, bool) { v, ok := r.metrics[m.Name]; return v, r.ok && ok }
		for _, s := range sides {
			won := ""
			if s == "work" {
				n, of := wins(pairs, m.Better, get)
				won = fmt.Sprintf("%d/%d", n, of)
			}
			xs := values(pairs, s, get)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s", m.Name, m.Better, s, won, num(median(xs)))
			if q1, q3, ok := quartiles(xs); ok {
				fmt.Fprintf(tw, "\t%s–%s", num(q1), num(q3))
			} else {
				fmt.Fprint(tw, "\t-")
			}
			fmt.Fprintf(tw, "\t%s–%s\n", num(minOf(xs)), num(maxOf(xs)))
		}
	}
	for _, s := range sides {
		var failed, attempted uint64
		for _, p := range pairs {
			failed += p.side(s).failed
			attempted += p.side(s).attempted
		}
		fmt.Fprintf(tw, "failed\t\t%s\t\t%d of %d\n", s, failed, attempted)
	}
	tw.Flush()
}

// printLayers prints the per-layer counts the runs reported, in the
// declaration's order.
func printLayers(w io.Writer, metrics []metric, pairs []*pair) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "per layer\tbetter\thead median\twork median\twork won")
	for _, m := range metrics {
		get := func(r *result) (float64, bool) { v, ok := r.layers[m.Name]; return v, ok }
		head, work := values(pairs, "head", get), values(pairs, "work", get)
		if len(head)+len(work) == 0 {
			continue
		}
		won, of := wins(pairs, m.Better, get)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\n", m.Name, m.Better, num(median(head)), num(median(work)), won, of)
	}
	tw.Flush()
}

// values collects one tree's readings of a metric, skipping runs that
// have none.
func values(pairs []*pair, side string, get func(*result) (float64, bool)) []float64 {
	var xs []float64
	for _, p := range pairs {
		if v, ok := get(p.side(side)); ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// wins counts the pairs in which the working tree read better than HEAD,
// out of the pairs in which both trees have a reading.
func wins(pairs []*pair, better string, get func(*result) (float64, bool)) (won, of int) {
	for _, p := range pairs {
		h, ok1 := get(&p.head)
		v, ok2 := get(&p.work)
		if !ok1 || !ok2 {
			continue
		}
		of++
		if (better == "lower" && v < h) || (better == "higher" && v > h) {
			won++
		}
	}
	return won, of
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third of the cut points
// statistics.quantiles(xs, n=4) returns (its "exclusive" method). It needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[0]
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[len(xs)-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// num prints a reading with six significant digits, as perfbench does.
func num(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
