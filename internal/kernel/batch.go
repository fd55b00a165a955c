package kernel

import (
	"context"
	"sync"
)

// Sub is one submission-queue entry: an operation on an object, addressed
// through a capability handle. Port and channel handles dispatch to the
// port's handler; object handles dispatch as authorization-checked null
// system calls on the named object (Obj is ignored for those — the handle
// carries the name).
type Sub struct {
	Cap  Cap
	Op   string
	Obj  string
	Args [][]byte
	// Tag is copied verbatim into the matching Completion, io_uring-style,
	// so callers can correlate out of a reused completion slice.
	Tag uint64
}

// Completion is the result of one submitted operation.
type Completion struct {
	Tag uint64
	Out []byte
	Err error
}

// wireArenas pools the per-submission marshal arenas: with interposition
// enabled every operation's wire copy is appended into one arena instead of
// allocating per call, which is where the batch path's per-op advantage
// over Call comes from.
var wireArenas = sync.Pool{New: func() any { return new([]byte) }}

// arenaKeepCap bounds the buffer size returned to wireArenas (and to
// framePool, egress.go) so one huge batch or frame cannot pin memory
// forever.
const arenaKeepCap = 64 << 10

// Submit pushes a batch of operations through one kernel entry: the toggle
// word is loaded once, handles resolve through the session's table (with a
// one-entry memo for runs against the same target), each operation is
// authorized independently — batching amortizes marshaling and scheduling,
// never the per-op policy check — and marshaling for interposition shares
// one pooled arena across the batch.
//
// comps is the completion queue: if it has capacity for the batch it is
// reused (a steady-state caller allocates nothing); otherwise a fresh slice
// is returned. Per-op failures land in the matching Completion.Err and do
// not stop the batch. The error return is reserved for submission-level
// failures (context cancellation); completions for operations not yet run
// carry ECANCELED.
//
// Out buffers and errors in completions are owned by the caller; the wire
// copies shown to monitors during the batch are not valid afterwards. A nil
// ctx disables cancellation.
//
// The per-op loop is allocation-free once comps and the wire arenas are
// warm (pinned by TestAllocBatchedSubmitWarm).
//
//nexus:noalloc
func (s *Session) Submit(ctx context.Context, subs []Sub, comps []Completion) ([]Completion, error) {
	if cap(comps) >= len(subs) {
		comps = comps[:len(subs)]
	} else {
		comps = make([]Completion, len(subs)) //nexus:coldpath — grow once; steady state reuses the caller's slice
	}
	k := s.k
	flags := k.flags.Load()

	var arena *[]byte
	if flags&flagInterp != 0 {
		arena = wireArenas.Get().(*[]byte)
		*arena = (*arena)[:0]
	}

	// One-entry resolve memo: batches overwhelmingly target one port.
	var memoCap Cap
	var memoPort *Port
	var memoObj string
	var memoOK bool

	var m Msg
	canceled := false
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for i := range subs {
		sub := &subs[i]
		comps[i] = Completion{Tag: sub.Tag}
		if canceled {
			comps[i].Err = abiErr(ECANCELED, sub.Op, "batch canceled")
			continue
		}
		if done != nil {
			select {
			case <-done:
				canceled = true
				comps[i].Err = abiErr(ECANCELED, sub.Op, ctx.Err().Error())
				continue
			default:
			}
		}

		pt, obj := memoPort, memoObj
		if sub.Cap != memoCap || !memoOK {
			var aerr *Error
			pt, obj, aerr = s.resolve(sub.Cap)
			if aerr != nil {
				comps[i].Err = aerr
				memoOK = false
				continue
			}
			memoCap, memoPort, memoObj, memoOK = sub.Cap, pt, obj, true
		}

		m = Msg{Op: sub.Op, Obj: sub.Obj, Args: sub.Args}
		if pt == nil {
			// Object handle: authorization-checked null syscall on the
			// object named by the handle.
			m.Obj = obj
			_, err := k.dispatchFlags(flags, s.p, nil, &m, nullHandler, arena)
			comps[i].Err = err
			continue
		}
		out, err := k.dispatchFlags(flags, s.p, pt, &m, pt.h, arena)
		comps[i].Out, comps[i].Err = out, err
	}

	if arena != nil {
		if cap(*arena) <= arenaKeepCap {
			wireArenas.Put(arena)
		}
	}
	if canceled {
		return comps, abiErr(ECANCELED, "submit", "context canceled mid-batch")
	}
	return comps, nil
}

// nullHandler is the invoke body for object-handle submissions.
var nullHandler Handler = func(Caller, *Msg) ([]byte, error) { return nil, nil }

// SubmitAsync runs Submit on a fresh goroutine and delivers the completion
// queue on the returned channel — the asynchronous half of the SQ/CQ model:
// the submitter keeps running while the kernel drains the batch.
func (s *Session) SubmitAsync(ctx context.Context, subs []Sub) <-chan []Completion {
	ch := make(chan []Completion, 1)
	go func() {
		comps, _ := s.Submit(ctx, subs, nil)
		ch <- comps
	}()
	return ch
}

// SubQueue is a reusable submission/completion queue bound to a session:
// Push stages operations, Flush submits them as one batch and returns the
// completions. Both slices are retained and reused across flushes, so a
// steady-state Push/Flush loop performs no allocation beyond what the
// handlers themselves do. Not safe for concurrent use; create one queue per
// submitting goroutine.
type SubQueue struct {
	s     *Session
	subs  []Sub
	comps []Completion
}

// NewQueue creates a submission queue with capacity for depth staged
// operations (it grows beyond that transparently).
func (s *Session) NewQueue(depth int) *SubQueue {
	if depth < 1 {
		depth = 1
	}
	return &SubQueue{
		s:     s,
		subs:  make([]Sub, 0, depth),
		comps: make([]Completion, 0, depth),
	}
}

// Push stages one operation.
func (q *SubQueue) Push(sub Sub) { q.subs = append(q.subs, sub) }

// Depth reports the number of staged operations.
func (q *SubQueue) Depth() int { return len(q.subs) }

// Flush submits the staged batch and returns the completion queue, valid
// until the next Flush.
func (q *SubQueue) Flush(ctx context.Context) []Completion {
	comps, _ := q.s.Submit(ctx, q.subs, q.comps[:0])
	q.comps = comps
	q.subs = q.subs[:0]
	return comps
}
