package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/ledger"
	"repro/internal/nal"
)

// Tracing from the benchmark's own code: spans around each call into the
// system, a delegating guard and a delegating ledger backend for the
// serving kernel's decision path. A nil *tracer is the untraced run; every
// method returns at once on it.

// spanStat sums the spans of one name.
type spanStat struct {
	Calls   uint64 `json:"calls"`
	SelfNs  int64  `json:"self_ns"`
	TotalNs int64  `json:"total_ns"`
}

// spanLogCap bounds the spans a client keeps for the span file; the
// per-name sums cover every operation regardless.
const spanLogCap = 1 << 16

// tracer records the spans of one client goroutine, one operation at a
// time: the operation's root span and the calls it makes, including the
// guard check when the guard runs on this goroutine.
type tracer struct {
	epoch  time.Time
	nextID uint64
	op     uint64
	cur    []span
	open   []int
	self   []int64
	stats  map[string]*spanStat
	log    []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, stats: map[string]*spanStat{}}
}

// begin opens a span as a child of the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.nextID++
	var parent uint64
	if n := len(t.open); n > 0 {
		parent = t.cur[t.open[n-1]].ID
	}
	t.cur = append(t.cur, span{ID: t.nextID, Parent: parent, Op: t.op, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, len(t.cur)-1)
	return len(t.cur) - 1
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.cur[h].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// beginOp opens an operation's root span; its id names the operation.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op = t.nextID + 1
	t.begin(name)
}

// endOp closes the root span and folds the operation's spans into the
// per-name sums; measured reports whether the operation is inside the
// measured window (warm-up spans are dropped).
func (t *tracer) endOp(measured bool) {
	if t == nil {
		return
	}
	t.end(0)
	if measured {
		t.self = selfTimes(t.cur, t.self)
		for i := range t.cur {
			s := &t.cur[i]
			st := t.stats[s.Name]
			if st == nil {
				st = &spanStat{}
				t.stats[s.Name] = st
			}
			st.Calls++
			st.SelfNs += t.self[i]
			st.TotalNs += s.End - s.Start
		}
		if len(t.log)+len(t.cur) <= spanLogCap {
			t.log = append(t.log, t.cur...)
		}
	}
	t.cur = t.cur[:0]
	t.open = t.open[:0]
}

// serverSpans sums spans recorded on the serving kernel's goroutines,
// which the benchmark cannot link to a client operation across kernels.
type serverSpans struct {
	mu    sync.Mutex
	stats map[string]*spanStat
}

func newServerSpans() *serverSpans { return &serverSpans{stats: map[string]*spanStat{}} }

// record adds one span that started at start and has no recorded children.
func (s *serverSpans) record(name string, start time.Time) {
	d := time.Since(start).Nanoseconds()
	s.mu.Lock()
	st := s.stats[name]
	if st == nil {
		st = &spanStat{}
		s.stats[name] = st
	}
	st.Calls++
	st.SelfNs += d
	st.TotalNs += d
	s.mu.Unlock()
}

// snapshot copies the sums; it is nil when untraced.
func (s *serverSpans) snapshot() map[string]spanStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]spanStat, len(s.stats))
	for k, v := range s.stats {
		out[k] = *v
	}
	return out
}

// tracedGuard delegates to the real guard and times each check. When the
// subject is a client with a tracer (the guard runs on the caller's
// goroutine in a local call), the span joins that client's operation;
// otherwise it is a server-side span.
type tracedGuard struct {
	g       kernel.Guard
	subject []nal.Principal
	tracers []*tracer
	server  *serverSpans
}

func (t *tracedGuard) Check(req *kernel.GuardRequest) kernel.GuardDecision {
	for i, p := range t.subject {
		if p.EqualPrin(req.Subject) {
			h := t.tracers[i].begin("guard.check")
			d := t.g.Check(req)
			t.tracers[i].end(h)
			return d
		}
	}
	start := time.Now()
	d := t.g.Check(req)
	t.server.record("guard.check", start)
	return d
}

// tracedBackend delegates to a ledger backend and times record and seal
// appends.
type tracedBackend struct {
	ledger.Backend
	server *serverSpans
}

func (b tracedBackend) AppendRecord(r ledger.Record) error {
	start := time.Now()
	err := b.Backend.AppendRecord(r)
	b.server.record("ledger.append", start)
	return err
}

func (b tracedBackend) AppendSeal() error {
	start := time.Now()
	err := b.Backend.AppendSeal()
	b.server.record("ledger.seal", start)
	return err
}

// writeSpans writes one JSON object per line: the set-up steps (client
// -1), the clients' kept spans, then one summary line per server-side
// span name.
func writeSpans(path string, setup []span, tracers []*tracer, server map[string]spanStat) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type clientSpan struct {
		Client int `json:"client"`
		span
	}
	lines := make([]clientSpan, 0, len(setup))
	for _, s := range setup {
		lines = append(lines, clientSpan{-1, s})
	}
	for c, t := range tracers {
		for _, s := range t.log {
			lines = append(lines, clientSpan{c, s})
		}
	}
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	for name, st := range server {
		if err := enc.Encode(struct {
			Server string `json:"server_span"`
			spanStat
		}{name, st}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
