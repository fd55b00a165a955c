package kernel

import (
	"context"
	"encoding/binary"
	"time"

	"repro/internal/nal/proof"
)

// Remote operations of the Session ABI. A remote service is named by a
// *Peer (a verified connection to another node) plus the service name its
// node exported; Connect converts that name into a capability handle
// exactly as Open converts a local port name into one.
//
// The handle resolves to a local *forwarder port* owned by this session
// whose handler ships the message to the peer, so a cross-node call runs
// the dispatch pipeline twice — once here (local authorization of the
// egress, local interposition chains, batch submission via Submit) and
// once on the serving kernel against the caller's proxy principal. Nothing
// between Session.Call and the remote handler knows the target is remote.

// Connect opens a channel to a service exported by a peer node and returns
// the capability handle for it. The peer kernel records the channel grant
// against this session's proxy, so its connectivity analysis sees the
// cross-node edge.
func (s *Session) Connect(peer *Peer, service string) (Cap, error) {
	remotePort, err := peer.connect(s.p.PID, service)
	if err != nil {
		return 0, err
	}
	pt, err := s.k.CreatePort(s.p, func(from Caller, m *Msg) ([]byte, error) {
		return peer.call(from.PID, remotePort, m)
	})
	if err != nil {
		return 0, err
	}
	c, ok := s.ht.alloc(hslot{kind: capRemote, port: pt, obj: service, peer: peer, rport: remotePort})
	if !ok {
		// The session raced Exit; unwind the forwarder port idempotently.
		s.k.ports.remove(pt.ID)
		s.k.chans.dropPort(pt.ID)
		return 0, abiErr(ESRCH, "connect", "session exited")
	}
	return c, nil
}

// CallRemote performs a synchronous call through a remote handle. It is
// Session.Call restricted to remote handles — same dispatch pipeline,
// with the handle's kind asserted for callers that must not silently fall
// back to a local port.
func (s *Session) CallRemote(c Cap, m *Msg) ([]byte, error) {
	sl, ok := s.ht.lookup(c)
	if !ok || sl.kind != capRemote {
		return nil, ErrBadHandle
	}
	return s.k.dispatch(s.p, sl.port, m, sl.port.h)
}

// SubmitRemote pushes a batch of operations through one remote handle as a
// single wire exchange: every operation runs the local egress half of the
// dispatch pipeline — the loop-invariant head (channel check, interposition
// chain) once per batch, then authorization and the OnCall sweep per
// operation, with each entry marshaled directly into the outgoing frame so
// the interposition copy and the wire bytes are the same bytes. The
// survivors ship as one fSubmit frame, the serving kernel executes them in
// order through the same hoisted admission against this session's proxy,
// and one completion vector comes back. Operations that fail locally
// complete locally and are not shipped. As on every other path, the wire
// carries the message as the chain left it and every shipped operation's
// result passes the OnReturn sweep; with a monitor bound, each entry is
// therefore encoded again after its OnCall sweep.
//
// The contract matches Submit: comps is reused when it has capacity,
// per-op failures land in Completion.Err, and the error return is reserved
// for submission-level failures — context cancellation, a full in-flight
// window (EAGAIN), or the connection failing mid-exchange, in which case
// every shipped operation's Completion.Err carries the transport error.
// A per-op error from the serving kernel carries the errno class the
// operation failed with there, as CallRemote's does: kernel ABI errors and
// handler errors that wrap a kernel sentinel keep their class (errors.Is
// matches the sentinel), and any other handler error arrives wrapping
// ErrRemoteHandler. A port-level failure there (no such port, a closed port,
// no channel) fails every shipped operation with op "submit".
func (s *Session) SubmitRemote(ctx context.Context, c Cap, subs []Sub, comps []Completion) ([]Completion, error) {
	sl, ok := s.ht.lookup(c)
	if !ok || sl.kind != capRemote || sl.peer == nil {
		return nil, ErrBadHandle
	}
	peer := sl.peer
	if cap(comps) >= len(subs) {
		comps = comps[:len(subs)]
	} else {
		comps = make([]Completion, len(subs))
	}
	k := s.k
	flags := k.flags.Load()

	id, ch, err := peer.begin("submit")
	if err != nil {
		return comps[:0], err
	}
	t0 := time.Now()

	// Hoisted admission head: channel check and interposition chain are
	// per-batch, authorization and OnCall per operation.
	ba, baErr := k.batchAdmit(flags, s.p, sl.port)
	if baErr != nil {
		peer.abort(id)
		for i := range subs {
			comps[i] = Completion{Tag: subs[i].Tag, Err: baErr}
		}
		return comps, nil
	}

	// The batch frame builds in a pooled buffer; ownership transfers to the
	// peer's egress combiner at submit (early-abort paths recycle it here).
	frame := getFrameBuf(64 + len(subs)*32)[:0]
	frame = append(frame, fSubmit)
	frame = binary.AppendUvarint(frame, id)
	frame = binary.AppendUvarint(frame, uint64(s.p.PID))
	frame = binary.AppendUvarint(frame, uint64(sl.rport))
	countAt := len(frame)
	frame = append(frame, 0, 0, 0, 0) // batch count, patched below

	sent := make([]int, 0, len(subs))
	// With a monitor bound, shipped keeps each shipped operation's message
	// as the chain left it, for the OnReturn sweep over its result.
	var shipped []Msg
	if len(ba.chain) != 0 {
		shipped = make([]Msg, 0, len(subs))
	}
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
		m = Msg{Op: sub.Op, Obj: sub.Obj, Args: sub.Args}
		// The interposition wire copy IS the batch entry: the canonical
		// encoding is appended straight into the frame (after a length
		// placeholder) and the OnCall sweep inspects it there, so with no
		// monitor bound an operation is marshaled exactly once end to end.
		lenAt := len(frame)
		frame = append(frame, 0, 0, 0, 0)
		frame = appendMsgWire(frame, &m)
		if err := ba.admitOp(&m, frame[lenAt+4:]); err != nil {
			frame = frame[:lenAt]
			comps[i].Err = err
			continue
		}
		if shipped != nil {
			// OnCall may rewrite m in place, so the entry is encoded
			// again from m: the wire carries what the chain left. The new
			// encoding goes past the old one first, which m may alias.
			end := len(frame)
			frame = appendMsgWire(frame, &m)
			frame = append(frame[:lenAt+4], frame[end:]...)
			shipped = append(shipped, m)
		}
		binary.LittleEndian.PutUint32(frame[lenAt:lenAt+4], uint32(len(frame)-lenAt-4))
		sent = append(sent, i)
	}

	if len(sent) == 0 {
		peer.abort(id)
		putFrameBuf(frame)
		if canceled {
			return comps, abiErr(ECANCELED, "submit", "context canceled mid-batch")
		}
		return comps, nil
	}
	binary.LittleEndian.PutUint32(frame[countAt:countAt+4], uint32(len(sent)))

	resp, err := peer.submit(id, ch, t0, frame)
	if err != nil {
		for _, ci := range sent {
			comps[ci].Err = err
		}
		return comps, err
	}
	r := &netCursor{buf: resp}
	nres, ok := r.uvarint()
	if !ok || nres != uint64(len(sent)) {
		peer.fail()
		return comps, ErrTransportClosed
	}
	for j, ci := range sent {
		// Out aliases the response frame, which is exclusively ours.
		out, opErr, ok := r.completion()
		if !ok {
			peer.fail()
			return comps, ErrTransportClosed
		}
		if shipped != nil {
			// As dispatch does for CallRemote: every shipped operation's
			// result passes the OnReturn sweep, whatever its error.
			out = ba.unwind(&shipped[j], out)
		}
		comps[ci].Out, comps[ci].Err = out, opErr
	}
	if !r.done() {
		peer.fail()
		return comps, ErrTransportClosed
	}
	if canceled {
		return comps, abiErr(ECANCELED, "submit", "context canceled mid-batch")
	}
	return comps, nil
}

// RemoteLabel names a label this session deposited on a peer kernel: the
// proxy pid and labelstore handle there. It is the value to place in a
// RemoteCred.Ref for a later SetProofRemote.
type RemoteLabel struct {
	PID    int
	Handle int
}

// TransferLabelRemote externalizes a label from this session's labelstore
// (signing it under this node's TPM-rooted key, §2.4) and ships it to the
// peer, whose kernel verifies it through its pre-verification cache and
// interns it into this session's proxy labelstore there. The returned
// RemoteLabel is stable for the life of the connection.
func (s *Session) TransferLabelRemote(peer *Peer, labelHandle int) (RemoteLabel, error) {
	ext, err := s.p.Labels.Externalize(labelHandle)
	if err != nil {
		return RemoteLabel{}, err
	}
	pid, h, err := peer.xferLabel(s.p.PID, ext)
	if err != nil {
		return RemoteLabel{}, err
	}
	return RemoteLabel{PID: pid, Handle: h}, nil
}

// TransferExternal ships an already-externalized label to the peer on
// behalf of callerPID — the relay path for labels a node holds in
// certificate form rather than in a labelstore. Ingress applies the same
// verification as any transfer: the certificate must be signed by this
// node's NK and its speaker rooted at this node's kernel principal, so a
// relay cannot launder labels that did not originate here.
func (p *Peer) TransferExternal(callerPID int, ext *ExternalLabel) (RemoteLabel, error) {
	pid, h, err := p.xferLabel(callerPID, ext)
	if err != nil {
		return RemoteLabel{}, err
	}
	return RemoteLabel{PID: pid, Handle: h}, nil
}

// SetProofRemote registers a proof for this session's proxy identity on
// the peer kernel, binding it to (op, obj) there. Inline credential
// formulas travel through the per-connection wire codec (warm resends are
// backreferences); certificates are deduplicated per connection.
func (s *Session) SetProofRemote(peer *Peer, op, obj string, p *proof.Proof, creds []RemoteCred) error {
	return peer.setProof(s.p.PID, op, obj, p, creds)
}
