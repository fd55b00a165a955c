package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cachestat"
	"repro/internal/kernel"
	"repro/internal/tpm"
)

// A worker is one process of a run: it manufactures its TPMs, sets the
// system up under the watchdog, warms up, measures one window with two
// closed-loop clients, checks the outputs and prints one JSON result.

// clients is the number of closed-loop client goroutines per worker.
const clients = 2

// warmup runs the mix before the window so caches fill and lazy set-up
// finishes; its operations are checked but not measured.
const warmup = 200 * time.Millisecond

// workload is one scenario as a worker drives it.
type workload interface {
	// tpms is the number of TPMs setup boots its kernels on.
	tpms() int
	// setup builds the system, running every step through st. tracers
	// (nil entries when untraced) and server (nil when untraced) receive
	// the spans of the delegating guard and ledger backend.
	setup(st *setupRun, tpms []*tpm.TPM, tracers []*tracer, server *serverSpans) error
	// op runs client c's i-th operation; a non-nil error is an outcome
	// other than the expected one.
	op(c, i int, tr *tracer) error
	// checks runs the end-of-run output checks; each error is one failure.
	checks() []error
	// snapshot reads the cumulative counters a window is measured between.
	snapshot() snapshot
	// layerExtra returns per-layer figures the workload measures itself.
	layerExtra() map[string]float64
}

func newWorkload(name string, seed int64) (workload, bool) {
	switch name {
	case "local-authz-mix":
		return newLocalMix(seed, clients), true
	case "fauxbook-archive-tcp":
		return newArchiveMix(seed, clients), true
	}
	return nil, false
}

type snapshot struct {
	serving kernel.MetricsSnapshot // the kernel whose guard decides
	front   kernel.MetricsSnapshot // the calling kernel (TCP workload)
	guard   cachestat.Stats        // the serving guard's proof cache
	denials uint64                 // expected EACCES outcomes seen by clients
}

// ---- set-up watchdog -------------------------------------------------------

// stepBounds bounds each set-up step. A step that overruns its bound is
// abandoned with every goroutine's stack written to the result, and the
// whole set-up starts again on fresh TPMs.
var stepBounds = map[string]time.Duration{
	"boot":      5 * time.Second,
	"node":      time.Second,
	"provision": 10 * time.Second,
	"load":      20 * time.Second,
}

// maxAttempts bounds set-up attempts per worker.
const maxAttempts = 8

var errSetupTimeout = errors.New("set-up step exceeded its bound")

// setupRun times and bounds the steps of one set-up attempt.
type setupRun struct {
	epoch    time.Time          // the tracers' epoch, for step spans
	steps    map[string]float64 // seconds per step name
	spans    []span             // one per completed step, for the span file
	timeouts int
	stacks   []string
}

// step runs fn on its own goroutine and waits at most the step's bound.
// On overrun the goroutine is left behind, blocked wherever it hung.
func (s *setupRun) step(name string, fn func() error) error {
	bound := stepBounds[name]
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- fn() }()
	timer := time.NewTimer(bound)
	defer timer.Stop()
	select {
	case err := <-done:
		end := time.Now()
		s.steps[name] += end.Sub(start).Seconds()
		s.spans = append(s.spans, span{ID: uint64(len(s.spans) + 1), Name: "setup." + name,
			Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds()})
		if err != nil {
			return fmt.Errorf("set-up %s: %w", name, err)
		}
		return nil
	case <-timer.C:
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		s.timeouts++
		s.stacks = append(s.stacks, fmt.Sprintf("set-up step %q exceeded %v; all goroutines:\n%s", name, bound, buf))
		return errSetupTimeout
	}
}

// ---- measurement -----------------------------------------------------------

// clientRun is one client's account of a phase.
type clientRun struct {
	next      int // index of the client's next operation
	ops       uint64
	attempted uint64
	failed    uint64
	errs      []string
	end       time.Time
}

// drive runs every client closed-loop until dur has passed and returns
// when all have finished their last operation. When measured, each
// operation's latency goes to the client's histogram: the time between
// the clock reads that end consecutive operations, one monotonic read
// (time.Since) per operation.
func drive(w workload, runs []clientRun, tracers []*tracer, hists []*hist, dur time.Duration, measured bool) {
	var wg sync.WaitGroup
	start := time.Now()
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, tr, h := &runs[c], tracers[c], hists[c]
			last := time.Since(start)
			for {
				tr.beginOp("op")
				err := w.op(c, r.next, tr)
				tr.endOp(measured)
				now := time.Since(start)
				r.next++
				r.attempted++
				if err != nil {
					r.failed++
					if len(r.errs) < 5 {
						r.errs = append(r.errs, err.Error())
					}
				}
				if measured {
					r.ops++
					h.add(int64(now - last))
				}
				last = now
				if now >= dur {
					r.end = start.Add(now)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// workerResult is what a worker reports to the coordinator.
type workerResult struct {
	Index     int                 `json:"index"`
	Traced    bool                `json:"traced"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Errors    []string            `json:"errors,omitempty"`
	Timeouts  int                 `json:"setup_timeouts"`
	Stacks    []string            `json:"stacks,omitempty"`
	Metrics   map[string]float64  `json:"metrics"`
	Spans     map[string]spanStat `json:"spans,omitempty"`
	SpanFile  string              `json:"span_file,omitempty"`
	Lat       *hist               `json:"latency"`
}

type workerConfig struct {
	workload string
	seed     int64
	index    int
	window   time.Duration
	traced   bool
	out      string
}

func workerMain(cfg workerConfig) int {
	res, err := runWorker(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", cfg.index, err)
	}
	if res == nil {
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", cfg.index, err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

func manufacture(n int) ([]*tpm.TPM, error) {
	out := make([]*tpm.TPM, n)
	for i := range out {
		t, err := tpm.Manufacture(1024)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// runWorker sets up, measures and checks; it returns a nil result only for
// a configuration error or a TPM that could not be manufactured.
func runWorker(cfg workerConfig) (*workerResult, error) {
	res := &workerResult{Index: cfg.index, Traced: cfg.traced, Metrics: map[string]float64{}}
	// Inputs depend on the run's seed and the worker's index only.
	seed := cfg.seed*1000003 + int64(cfg.index)
	var (
		w       workload
		st      *setupRun
		tracers = make([]*tracer, clients)
		server  *serverSpans
		setupS  float64
	)
	for attempt := 1; ; attempt++ {
		var ok bool
		if w, ok = newWorkload(cfg.workload, seed); !ok {
			return nil, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		epoch := time.Now()
		if cfg.traced {
			for c := range tracers {
				tracers[c] = newTracer(epoch)
			}
			server = newServerSpans()
		}
		tpms, err := manufacture(w.tpms())
		if err != nil {
			return nil, err
		}
		runtime.GC()
		st = &setupRun{epoch: epoch, steps: map[string]float64{}}
		start := time.Now()
		err = w.setup(st, tpms, tracers, server)
		setupS = time.Since(start).Seconds()
		res.Timeouts += st.timeouts
		res.Stacks = append(res.Stacks, st.stacks...)
		if err == nil {
			break
		}
		if !errors.Is(err, errSetupTimeout) || attempt == maxAttempts {
			res.Attempted++
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
			return res, err
		}
	}
	m := res.Metrics
	m["setup_s"] = setupS
	for _, name := range []string{"boot", "node", "provision", "load"} {
		m["setup."+name+"_s"] = st.steps[name]
	}
	m["setup.timeouts"] = float64(res.Timeouts)

	runs := make([]clientRun, clients)
	hists := make([]*hist, clients)
	for c := range hists {
		hists[c] = newHist()
	}
	drive(w, runs, tracers, hists, warmup, false)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heapAfterSetup := ms0.HeapAlloc
	s0 := w.snapshot()
	cpu0 := cpuTime()
	server0 := server.snapshot()
	start := time.Now()
	drive(w, runs, tracers, hists, cfg.window, true)
	var end time.Time
	for _, r := range runs {
		if r.end.After(end) {
			end = r.end
		}
	}
	elapsed := end.Sub(start).Seconds()
	cpu1 := cpuTime()
	s1 := w.snapshot()
	runtime.ReadMemStats(&ms1)

	lat := newHist()
	var ops uint64
	for c, r := range runs {
		lat.merge(hists[c])
		ops += r.ops
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Errors = append(res.Errors, r.errs...)
	}
	for _, err := range w.checks() {
		res.Attempted++
		res.Failed++
		res.Errors = append(res.Errors, "check: "+err.Error())
	}
	res.Lat = lat

	n := float64(ops)
	m["ops"] = n
	m["ops_per_s"] = n / elapsed
	m["p50_us"] = lat.percentile(50) / 1e3
	if reportable(lat.N, 99) {
		m["p99_us"] = lat.percentile(99) / 1e3
	}
	m["allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	m["runtime.bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	m["runtime.gc_per_kop"] = float64(ms1.NumGC-ms0.NumGC) * 1000 / n
	m["runtime.cpu_us_per_op"] = (cpu1 - cpu0).Seconds() * 1e6 / n
	m["runtime.heap_after_setup_bytes"] = float64(heapAfterSetup)
	m["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
	layerCounts(m, s0, s1, n)
	for k, v := range w.layerExtra() {
		m[k] = v
	}
	// After the checks, which close the workload's connections.
	fin := w.snapshot()
	m["transport.live_conns_end"] = float64(fin.serving.NetLiveConns + fin.front.NetLiveConns)

	if cfg.traced {
		res.Spans = map[string]spanStat{}
		for _, t := range tracers {
			for name, st := range t.stats {
				agg := res.Spans[name]
				agg.Calls += st.Calls
				agg.SelfNs += st.SelfNs
				agg.TotalNs += st.TotalNs
				res.Spans[name] = agg
			}
		}
		window := map[string]spanStat{}
		for name, st := range server.snapshot() {
			st0 := server0[name]
			window[name] = spanStat{Calls: st.Calls - st0.Calls, SelfNs: st.SelfNs - st0.SelfNs, TotalNs: st.TotalNs - st0.TotalNs}
			res.Spans[name] = window[name]
		}
		if cfg.out != "" {
			if err := os.MkdirAll(cfg.out, 0o755); err != nil {
				return res, err
			}
			res.SpanFile = filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-worker%d.spans.jsonl", cfg.workload, cfg.seed, cfg.index))
			if err := writeSpans(res.SpanFile, st.spans, tracers, window); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layerCounts derives the per-layer counters of a window from the
// snapshots at its ends; n is the number of operations measured.
func layerCounts(m map[string]float64, a, b snapshot, n float64) {
	d := func(f func(*kernel.MetricsSnapshot) uint64) float64 {
		return float64(f(&b.serving) + f(&b.front) - f(&a.serving) - f(&a.front))
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	lookups := d(func(s *kernel.MetricsSnapshot) uint64 { return s.DCacheLookups })
	hits := d(func(s *kernel.MetricsSnapshot) uint64 { return s.DCacheHits })
	misses := d(func(s *kernel.MetricsSnapshot) uint64 { return s.DCacheMisses })
	upcalls := d(func(s *kernel.MetricsSnapshot) uint64 { return s.GuardUpcalls })
	m["dcache.hit_ratio"] = ratio(hits, lookups)
	m["dcache.misses_per_op"] = misses / n
	m["guard.upcalls_per_op"] = upcalls / n
	m["guard.deny_share"] = ratio(float64(b.denials-a.denials), upcalls)
	m["guard.proof_cache_hit_ratio"] = ratio(float64(b.guard.Hits-a.guard.Hits), float64(b.guard.Lookups-a.guard.Lookups))
	m["proof.checks_per_op"] = float64(b.guard.Misses-a.guard.Misses) / n
	m["audit.records_per_op"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.AuditRecords }) / n
	m["ledger.records_per_op"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.LedgerRecords }) / n
	m["ledger.batches_per_op"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.LedgerBatches }) / n
	m["ledger.errors"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.LedgerErrors + s.LedgerForwardXErrs })
	m["transport.sends_per_op"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.NetSends }) / n
	m["transport.send_bytes_per_op"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.NetSendBytes }) / n
	m["transport.poll_wakeups_per_op"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.NetPollWakeups }) / n
	m["transport.frames_per_flush"] = ratio(
		d(func(s *kernel.MetricsSnapshot) uint64 { return s.NetEgressCoalescedFrames }),
		d(func(s *kernel.MetricsSnapshot) uint64 { return s.NetEgressFlushes }))
	m["transport.timeouts"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.NetTimeouts })
	m["transport.request_us_p50"] = log2Median(a.front.NetRequestNs, b.front.NetRequestNs) / 1e3
	ql := func(s *kernel.MetricsSnapshot) *kernel.HistogramSnapshot { return &s.NetQueueLen }
	m["transport.queue_len_mean"] = ratio(
		d(func(s *kernel.MetricsSnapshot) uint64 { return ql(s).SumNs }),
		d(func(s *kernel.MetricsSnapshot) uint64 { return ql(s).Count }))
	m["transport.inflight_depth_mean"] = ratio(
		float64(b.front.NetInflightDepth.SumNs-a.front.NetInflightDepth.SumNs),
		float64(b.front.NetInflightDepth.Count-a.front.NetInflightDepth.Count))
	m["wire.decodes_per_op"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.WireDecodes }) / n
	m["wire.decode_errors"] = d(func(s *kernel.MetricsSnapshot) uint64 { return s.WireDecodeErrors })
}

// log2Median estimates the median of the samples a kernel log2 histogram
// gained between two snapshots, interpolating inside the bucket that holds
// it (bucket i spans [2^(i-1), 2^i) ns).
func log2Median(a, b kernel.HistogramSnapshot) float64 {
	total := b.Count - a.Count
	if total == 0 {
		return 0
	}
	half := float64(total) / 2
	var cum float64
	for i := range b.Buckets {
		c := float64(b.Buckets[i] - a.Buckets[i])
		if c == 0 || cum+c < half {
			cum += c
			continue
		}
		if i == 0 {
			return 0
		}
		lo := float64(uint64(1) << uint(i-1))
		return lo + lo*(half-cum)/c
	}
	return 0
}
