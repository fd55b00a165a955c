// Command perfbench is the repository's benchmark: it runs one seeded
// closed-loop workload against the kernel's public Go API, checks every
// reply, and prints every metric by name with its unit. The last line of
// its output is one JSON object: correct, attempted, failed, metrics.
//
//	go build -o perfbench . && ./perfbench --workload local-authz-mix --seed 1 --seconds 20 --trace 0
//
// A run is a sequence of worker processes, each of which sets the system
// up, warms up and measures one window of seconds/workers. Throughput on
// the TCP workload differs between processes far more than between
// windows of one process, so a run reports the median over its workers.
// With --trace 1 the workers alternate between untraced and traced; the
// run prints the per-layer metrics: counts from the untraced workers,
// span times from the traced ones, and what tracing cost.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workersPerRun is the number of worker processes one run measures with.
const workersPerRun = 32

// runBudget bounds a whole run; workers are not started past it. With
// workerOverhead it keeps a run under 180 s however its workers fail.
const runBudget = 100 * time.Second

// workerOverhead bounds a worker's set-up, warm-up and checks beyond its
// measured window; a worker still running past it is killed.
const workerOverhead = 45 * time.Second

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics. The 99th percentile is not among
// them: a run reports every end-to-end metric on every workload, and on
// the TCP workload the 99th percentile sits at the edge of a mode of
// millisecond stalls and swings between runs by more than any bound
// allows. Every workload's tail is reported per layer (tail.*).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"allocs_per_op", "count"},
}

// perLayer lists the per-layer metrics in report order. Counts come from
// the untraced workers, times (spanMetrics) from the traced ones.
var perLayer = []metricDef{
	{"session.call_us", "us"},
	{"session.self_us", "us"},
	{"dcache.hit_ratio", "ratio"},
	{"dcache.misses_per_op", "count"},
	{"guard.upcalls_per_op", "count"},
	{"guard.check_us", "us"},
	{"guard.deny_share", "ratio"},
	{"guard.proof_cache_hit_ratio", "ratio"},
	{"proof.checks_per_op", "count"},
	{"audit.records_per_op", "count"},
	{"ledger.records_per_op", "count"},
	{"ledger.batches_per_op", "count"},
	{"ledger.append_us", "us"},
	{"ledger.seal_us", "us"},
	{"ledger.errors", "count"},
	{"transport.sends_per_op", "count"},
	{"transport.send_bytes_per_op", "B"},
	{"transport.poll_wakeups_per_op", "count"},
	{"transport.frames_per_flush", "count"},
	{"transport.request_us_p50", "us"},
	{"transport.queue_len_mean", "count"},
	{"transport.inflight_depth_mean", "count"},
	{"transport.timeouts", "count"},
	{"transport.live_conns_end", "count"},
	{"tail.p99_us", "us"},
	{"tail.p999_us", "us"},
	{"tail.over_1ms_share", "ratio"},
	{"transport.dial_us", "us"},
	{"transport.close_us", "us"},
	{"cert.attach_us", "us"},
	{"wire.decodes_per_op", "count"},
	{"wire.decode_errors", "count"},
	{"wire.attach_decodes", "count"},
	{"fauxbook.archive_us", "us"},
	{"fauxbook.restore_us", "us"},
	{"fauxbook.blob_bytes", "B"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.heap_after_setup_bytes", "B"},
	{"runtime.goroutines_end", "count"},
	{"setup.boot_s", "s"},
	{"setup.node_s", "s"},
	{"setup.provision_s", "s"},
	{"setup.load_s", "s"},
	{"setup.timeouts", "count"},
	{"trace.overhead_share", "ratio"},
}

// spanMetrics maps a per-layer time to the spans it sums, per operation:
// self time, or inclusive time when total is set.
var spanMetrics = map[string]struct {
	spans []string
	total bool
}{
	"session.call_us":     {[]string{"session.call"}, true},
	"session.self_us":     {[]string{"session.call", "session.setproof"}, false},
	"guard.check_us":      {[]string{"guard.check"}, false},
	"ledger.append_us":    {[]string{"ledger.append"}, false},
	"ledger.seal_us":      {[]string{"ledger.seal"}, false},
	"fauxbook.archive_us": {[]string{"fauxbook.archive"}, false},
	"fauxbook.restore_us": {[]string{"fauxbook.restore"}, false},
}

// summed metrics are event counts over the whole run, not medians.
var summed = map[string]bool{
	"ledger.errors":      true,
	"transport.timeouts": true,
	"wire.decode_errors": true,
	"setup.timeouts":     true,
}

func main() {
	workload := flag.String("workload", "", "local-authz-mix or fauxbook-archive-tcp")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measured seconds, shared among the run's workers")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/out", "directory for span files")
	worker := flag.Int("worker", -1, "run as worker number n (internal)")
	window := flag.Duration("window", 0, "worker's measured window (internal)")
	traced := flag.Bool("traced", false, "worker records spans (internal)")
	flag.Parse()
	if _, ok := newWorkload(*workload, 0); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *worker >= 0 {
		os.Exit(workerMain(workerConfig{workload: *workload, seed: *seed, index: *worker,
			window: *window, traced: *traced, out: *out}))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(coordinate(*workload, *seed, *seconds, *trace == 1, *out))
}

// coordinate runs the workers one after another and reports the run.
func coordinate(workload string, seed int64, seconds int, trace bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	meta := collectMeta()
	window := time.Duration(seconds) * time.Second / workersPerRun
	start := time.Now()
	steal0 := readStat()
	var (
		results  []*workerResult
		lost     int
		failures []string
	)
	for i := 0; i < workersPerRun; i++ {
		if time.Since(start) > runBudget {
			lost += workersPerRun - i
			failures = append(failures, fmt.Sprintf("run budget %v spent after %d workers", runBudget, i))
			break
		}
		res, err := spawn(exe, workload, seed, i, window, trace && i%2 == 1, out)
		if err != nil {
			lost++
			failures = append(failures, fmt.Sprintf("worker %d: %v", i, err))
		}
		if res != nil {
			results = append(results, res)
		}
	}
	meta["cpu_steal_share"] = readStat().stealSince(steal0)

	var attempted, failed uint64
	var timeouts int
	for _, r := range results {
		attempted += r.Attempted
		failed += r.Failed
		timeouts += r.Timeouts
		for _, e := range r.Errors {
			failures = append(failures, fmt.Sprintf("worker %d: %s", r.Index, e))
		}
	}
	attempted += uint64(lost)
	failed += uint64(lost)
	if attempted == 0 {
		attempted = 1
	}

	var metrics map[string]float64
	var units []metricDef
	if trace {
		metrics, units = layerReport(results), perLayer
	} else {
		metrics, units = endToEndReport(results), endToEnd
	}

	printWorkers(results)
	fmt.Printf("setup.timeouts %d\n", timeouts)
	for _, r := range results {
		for _, s := range r.Stacks {
			fmt.Printf("worker %d stacks: %s\n", r.Index, s)
		}
	}
	for i, f := range failures {
		if i == 20 {
			fmt.Printf("... %d more failures\n", len(failures)-i)
			break
		}
		fmt.Println("failure:", f)
	}
	if trace {
		printSpans(results)
	} else {
		// Counts are measured in every run; span times need --trace 1.
		counts := layerReport(results)
		for _, d := range perLayer {
			if _, isSpan := spanMetrics[d.name]; !isSpan && d.name != "trace.overhead_share" {
				fmt.Printf("layer %-32s %14.6g %s\n", d.name, counts[d.name], d.unit)
			}
		}
	}
	if b, err := json.Marshal(meta); err == nil {
		fmt.Printf("meta %s\n", b)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	report := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	report.Correct = failed == 0 && len(results) == workersPerRun
	for _, d := range units {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Too few samples for the statistic (a percentile with fewer
			// than minBeyond samples beyond it, say): reported as 0.
			fmt.Printf("%s: not measurable in this run, reported as 0\n", d.name)
			v = 0
		}
		report.Metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

// spawn runs one worker process to completion and parses its result: the
// last line of its standard output.
func spawn(exe, workload string, seed int64, i int, window time.Duration, traced bool, out string) (*workerResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), window+workerOverhead)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--worker", strconv.Itoa(i), "--window", window.String(), "--traced="+strconv.FormatBool(traced), "--out", out)
	// A worker must not outlive a coordinator that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res workerResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("result: %v", err)
	}
	if runErr != nil {
		return &res, runErr
	}
	return &res, nil
}

// collect gathers one metric over the workers that report it.
func collect(results []*workerResult, name string, traced bool) []float64 {
	var xs []float64
	for _, r := range results {
		if r.Traced != traced {
			continue
		}
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// endToEndReport takes each metric's median over the workers. A worker is
// one process and one window; the median keeps a minority of windows that
// the machine or the process slowed from moving the run's figure. The
// pooled tail, stalls included, is reported per layer (tail.*).
func endToEndReport(results []*workerResult) map[string]float64 {
	m := map[string]float64{}
	for _, d := range endToEnd {
		m[d.name] = median(collect(results, d.name, false))
	}
	return m
}

// pooled merges the latency histograms of the untraced workers.
func pooled(results []*workerResult) *hist {
	lat := newHist()
	for _, r := range results {
		if !r.Traced && r.Lat != nil {
			lat.merge(r.Lat)
		}
	}
	return lat
}

func layerReport(results []*workerResult) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		if _, ok := spanMetrics[d.name]; ok {
			continue
		}
		xs := collect(results, d.name, false)
		switch {
		case summed[d.name]:
			// Events count in every worker, traced or not.
			m[d.name] = 0
			for _, x := range append(xs, collect(results, d.name, true)...) {
				m[d.name] += x
			}
		case d.name == "transport.live_conns_end":
			m[d.name] = 0
			for _, x := range xs {
				m[d.name] = math.Max(m[d.name], x)
			}
		case len(xs) > 0:
			m[d.name] = median(xs)
		}
	}
	lat := pooled(results)
	m["tail.p99_us"], m["tail.p999_us"] = math.NaN(), math.NaN()
	if reportable(lat.N, 99) {
		m["tail.p99_us"] = lat.percentile(99) / 1e3
	}
	if reportable(lat.N, 99.9) {
		m["tail.p999_us"] = lat.percentile(99.9) / 1e3
	}
	if lat.N > 0 {
		m["tail.over_1ms_share"] = float64(lat.Over1ms) / float64(lat.N)
	}
	for name, def := range spanMetrics {
		var xs []float64
		for _, r := range results {
			if !r.Traced {
				continue
			}
			var ns int64
			for _, s := range def.spans {
				if def.total {
					ns += r.Spans[s].TotalNs
				} else {
					ns += r.Spans[s].SelfNs
				}
			}
			xs = append(xs, float64(ns)/1e3/r.Metrics["ops"])
		}
		m[name] = median(xs)
	}
	m["trace.overhead_share"] = 1 - median(collect(results, "ops_per_s", true))/median(collect(results, "ops_per_s", false))
	return m
}

func printWorkers(results []*workerResult) {
	fmt.Printf("%-6s %-6s %9s %12s %9s %9s %8s %8s\n", "worker", "traced", "setup_ms", "ops_per_s", "p50_us", "p99_us", "allocs", "timeouts")
	for _, r := range results {
		m := r.Metrics
		fmt.Printf("%-6d %-6v %9.2f %12.1f %9.2f %9.2f %8.2f %8d\n", r.Index, r.Traced, m["setup_s"]*1e3,
			m["ops_per_s"], m["p50_us"], m["p99_us"], m["allocs_per_op"], r.Timeouts)
	}
	for _, d := range endToEnd {
		if xs := collect(results, d.name, false); len(xs) > 1 {
			fmt.Printf("spread over untraced workers: %-14s %.3f\n", d.name, spread(xs))
		}
	}
}

// printSpans prints the traced workers' per-layer table: calls, self and
// inclusive time per operation for every span name, and the span files.
func printSpans(results []*workerResult) {
	sum := map[string]spanStat{}
	var ops float64
	for _, r := range results {
		if !r.Traced {
			continue
		}
		ops += r.Metrics["ops"]
		for name, s := range r.Spans {
			a := sum[name]
			a.Calls += s.Calls
			a.SelfNs += s.SelfNs
			a.TotalNs += s.TotalNs
			sum[name] = a
		}
		if r.SpanFile != "" {
			fmt.Println("span file:", r.SpanFile)
		}
	}
	if ops == 0 {
		return
	}
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %12s %14s %14s\n", "span", "calls_per_op", "self_us_per_op", "total_us_per_op")
	for _, name := range names {
		s := sum[name]
		fmt.Printf("%-24s %12.4f %14.3f %14.3f\n", name, float64(s.Calls)/ops, float64(s.SelfNs)/1e3/ops, float64(s.TotalNs)/1e3/ops)
	}
}

// ---- run metadata ------------------------------------------------------

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	var s cpuStat
	// user nice system idle iowait irq softirq steal; the guest fields
	// that follow are already counted in user and nice.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, _ := strconv.ParseUint(f, 10, 64)
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

func (s cpuStat) stealSince(a cpuStat) float64 {
	if s.total <= a.total {
		return 0
	}
	return float64(s.steal-a.steal) / float64(s.total-a.total)
}
