package kernel

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Kernel-wide observability plane. One flat struct of counters and latency
// histograms covers every per-decision event class: decision-cache traffic,
// guard upcalls, proof checks, wire decode, transport send/recv, and ledger
// forwarding. Counters that the subsystems already maintain lock-free
// (dcache hit/miss via cachestat, guardUpcalls, audit totals, ledger stats)
// are *not* duplicated — Metrics() folds them into the snapshot at read
// time. What lives here are the event classes that had no counter before.
//
// Two rules keep the plane invisible to the measured system:
//
//  1. Nothing on the warm authorized-syscall path touches it. The warm
//     path's only observable event — a dcache hit — is already counted by
//     the cache's own striped cachestat counters; instrumentation here is
//     confined to miss and transport paths. alloc_test.go pins the warm
//     path at 0 allocs/op with metrics (and a ledger) attached.
//  2. Writes are striped atomics. Counter stripes are cache-line padded
//     and selected by caller identity (PID, connection id), so concurrent
//     writers on different stripes never share a line; reads sum stripes.

// metricID indexes the striped counter set.
type metricID int

const (
	mProofChecks metricID = iota // guard upcalls carrying a registered proof
	mWireDecodes                 // formula/cert wire decodes on ingress
	mWireDecodeErrs
	mNetSends // transport frames sent (requests + responses)
	mNetSendBytes
	mNetRecvs // transport frames received
	mNetRecvBytes
	mNetTimeouts      // transport I/O classified ETIMEDOUT
	mNetShed          // connections rejected at the MaxConns shed-load gate
	mNetPollWakeups   // TCP reads that parked in the netpoller and were woken
	mNetEgressFlushes // egress-combiner flushes (writes to the connection)
	mNetEgressFrames  // frames that left through the combiner
	mLedgerFwdErrs    // audit→ledger forwards the ledger rejected
	numMetrics
)

// numStripes is the counter stripe count (power of two).
const numStripes = 16

// metricStripe is one cache-line-isolated bank of counters.
type metricStripe struct {
	c [numMetrics]atomic.Uint64
	_ [64]byte // pad so adjacent stripes never share a line
}

// histBuckets bounds the log2 latency histogram: bucket i counts durations
// d with bits.Len64(ns) == i, i.e. [2^(i-1), 2^i) ns; bucket 0 is 0ns and
// the last bucket absorbs everything ≥ ~34s.
const histBuckets = 36

// histogram is a lock-free log2 latency histogram.
type histogram struct {
	count   atomic.Uint64
	sumNs   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.observeCount(ns)
}

// observeCount records one plain value (queue depth, batch size) into the
// same log2 buckets; for count histograms SumNs is the plain sum.
func (h *histogram) observeCount(v uint64) {
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.count.Add(1)
	h.sumNs.Add(v)
	h.buckets[b].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a latency histogram.
type HistogramSnapshot struct {
	Count uint64
	SumNs uint64
	// Buckets[i] counts durations in [2^(i-1), 2^i) nanoseconds.
	Buckets [histBuckets]uint64
}

func (h *histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// kernelMetrics is the plane itself; one per kernel, always attached.
type kernelMetrics struct {
	stripes [numStripes]metricStripe
	// guardNs times the full guard upcall (kernel → guard → kernel).
	guardNs histogram
	// netReqNs times the client side of one transport round-trip.
	netReqNs histogram
	// netDepth samples the in-flight request depth of a pipelined
	// connection, observed as each request enters the pending table.
	netDepth histogram
	// netBatch samples the operations per remote request (ops per
	// fSubmit), observed by the serving side; a single remote call is a
	// batch of one.
	netBatch histogram
	// netConns gauges live transport connections (accepted + dialed): a
	// gauge, not a striped counter, because it goes down as well as up.
	netConns atomic.Int64
}

// add bumps a counter on the stripe selected by key (caller identity:
// PID, connection id — anything stable per concurrent writer).
func (m *kernelMetrics) add(key uint64, id metricID, n uint64) {
	m.stripes[key&(numStripes-1)].c[id].Add(n)
}

// total sums a counter across stripes.
func (m *kernelMetrics) total(id metricID) uint64 {
	var n uint64
	for i := range m.stripes {
		n += m.stripes[i].c[id].Load()
	}
	return n
}

// MetricsSnapshot is the flat, CSV-friendly export of the observability
// plane: every field is a plain number (histograms aside), so rows diff
// and plot without parsing.
type MetricsSnapshot struct {
	// Decision cache (from the cache's own striped counters).
	DCacheLookups   uint64
	DCacheHits      uint64
	DCacheMisses    uint64
	DCacheEvictions uint64
	// Decision path.
	GuardUpcalls uint64
	ProofChecks  uint64
	// Audit log and ledger.
	AuditRecords       uint64
	AuditRetained      uint64
	LedgerRecords      uint64
	LedgerBatches      uint64
	LedgerPending      uint64
	LedgerErrors       uint64 // backend append/sync failures (ledger-side)
	LedgerForwardXErrs uint64 // audit→ledger forwards rejected (kernel-side)
	// Wire codec (ingress).
	WireDecodes      uint64
	WireDecodeErrors uint64
	// Transport.
	NetSends     uint64
	NetSendBytes uint64
	NetRecvs     uint64
	NetRecvBytes uint64
	NetTimeouts  uint64
	// Transport runtime.
	NetLiveConns   uint64 // gauge: established connections (accepted + dialed)
	NetShedRejects uint64 // connections rejected at the MaxConns gate
	// Datapath: netpoller wakeups and egress coalescing. NetPollWakeups
	// counts TCP reads that parked in the runtime netpoller and were woken
	// by data; a lockstep round trip costs 2, one per direction.
	// Frames-per-flush (NetEgressCoalescedFrames / NetEgressFlushes)
	// measures coalescing.
	NetPollWakeups           uint64
	NetEgressFlushes         uint64
	NetEgressCoalescedFrames uint64
	// Latency distributions.
	GuardUpcallNs HistogramSnapshot
	NetRequestNs  HistogramSnapshot
	// Pipelined-transport distributions (counts, not nanoseconds): the
	// in-flight depth seen by each request, and ops per remote request
	// served (a single call counts as a batch of one).
	NetInflightDepth HistogramSnapshot
	NetBatchOps      HistogramSnapshot
	// NetQueueLen is always empty: the runtime queues no connection for a
	// worker. It stays for readers that still export it (perfbench's
	// transport.queue_len_mean).
	NetQueueLen HistogramSnapshot
}

// gauge clamps a live gauge at zero: teardown decrements can transiently
// race ahead of their matching increments.
func gauge(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// Metrics captures the kernel-wide observability snapshot, folding in the
// counters the subsystems maintain themselves.
func (k *Kernel) Metrics() MetricsSnapshot {
	m := k.metrics
	cs := k.dcache.StatsSnapshot()
	s := MetricsSnapshot{
		DCacheLookups:            cs.Lookups,
		DCacheHits:               cs.Hits,
		DCacheMisses:             cs.Misses,
		DCacheEvictions:          cs.Evictions,
		GuardUpcalls:             k.guardUpcalls.Load(),
		ProofChecks:              m.total(mProofChecks),
		AuditRecords:             k.audit.Total(),
		AuditRetained:            uint64(k.audit.Len()),
		LedgerForwardXErrs:       m.total(mLedgerFwdErrs),
		WireDecodes:              m.total(mWireDecodes),
		WireDecodeErrors:         m.total(mWireDecodeErrs),
		NetSends:                 m.total(mNetSends),
		NetSendBytes:             m.total(mNetSendBytes),
		NetRecvs:                 m.total(mNetRecvs),
		NetRecvBytes:             m.total(mNetRecvBytes),
		NetTimeouts:              m.total(mNetTimeouts),
		NetLiveConns:             gauge(m.netConns.Load()),
		NetShedRejects:           m.total(mNetShed),
		NetPollWakeups:           m.total(mNetPollWakeups),
		NetEgressFlushes:         m.total(mNetEgressFlushes),
		NetEgressCoalescedFrames: m.total(mNetEgressFrames),
		GuardUpcallNs:            m.guardNs.snapshot(),
		NetRequestNs:             m.netReqNs.snapshot(),
		NetInflightDepth:         m.netDepth.snapshot(),
		NetBatchOps:              m.netBatch.snapshot(),
	}
	if l := k.led.Load(); l != nil {
		ls := l.Stats()
		s.LedgerRecords = ls.Records
		s.LedgerBatches = ls.Batches
		s.LedgerPending = ls.Pending
		s.LedgerErrors = ls.Errors
	}
	return s
}

// render writes the /proc/kernel/metrics text exposition: one "name value"
// line per counter, histograms as count/sum plus their nonzero buckets.
func (s *MetricsSnapshot) render() string {
	var b strings.Builder
	row := func(name string, v uint64) {
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	row("dcache_lookups", s.DCacheLookups)
	row("dcache_hits", s.DCacheHits)
	row("dcache_misses", s.DCacheMisses)
	row("dcache_evictions", s.DCacheEvictions)
	row("guard_upcalls", s.GuardUpcalls)
	row("proof_checks", s.ProofChecks)
	row("audit_records", s.AuditRecords)
	row("audit_retained", s.AuditRetained)
	row("ledger_records", s.LedgerRecords)
	row("ledger_batches", s.LedgerBatches)
	row("ledger_pending", s.LedgerPending)
	row("ledger_errors", s.LedgerErrors)
	row("ledger_forward_errors", s.LedgerForwardXErrs)
	row("wire_decodes", s.WireDecodes)
	row("wire_decode_errors", s.WireDecodeErrors)
	row("net_sends", s.NetSends)
	row("net_send_bytes", s.NetSendBytes)
	row("net_recvs", s.NetRecvs)
	row("net_recv_bytes", s.NetRecvBytes)
	row("net_timeouts", s.NetTimeouts)
	row("net_conns", s.NetLiveConns)
	row("net_shed_rejects", s.NetShedRejects)
	row("net_poll_wakeups", s.NetPollWakeups)
	row("net_egress_flushes", s.NetEgressFlushes)
	row("net_egress_coalesced_frames", s.NetEgressCoalescedFrames)
	hist := func(name string, h *HistogramSnapshot) {
		row(name+"_count", h.Count)
		row(name+"_sum_ns", h.SumNs)
		for i, n := range h.Buckets {
			if n == 0 {
				continue
			}
			// Bucket upper bound: 2^i - 1 ns (bucket 0 is exactly 0).
			var le uint64
			if i > 0 {
				le = 1<<uint(i) - 1
			}
			fmt.Fprintf(&b, "%s_le_%d %d\n", name, le, n)
		}
	}
	hist("guard_upcall_ns", &s.GuardUpcallNs)
	hist("net_request_ns", &s.NetRequestNs)
	hist("net_inflight_depth", &s.NetInflightDepth)
	hist("net_batch_ops", &s.NetBatchOps)
	return b.String()
}
