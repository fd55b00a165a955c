package kernel

import (
	"encoding/binary"
	"fmt"
)

// Inter-kernel frame vocabulary. A frame is one type byte followed by a
// type-specific payload built from three primitives: uvarints,
// length-prefixed byte strings, and nested wire forms (nal codec messages,
// cert wire certificates). Frames are self-delimiting; the transport below
// them is a reliable, ordered byte stream, on which each frame travels
// behind a 4-byte length prefix (egress.go writes it, the splitter in
// driver.go cuts at it).
//
// After the three-message handshake (hello, hello-ok, hello-ack) the
// connection is pipelined: every request and response frame carries a
// uvarint request id immediately after the type byte. The dialing side may
// have many requests in flight (bounded by the in-flight window); the
// accepting side processes requests strictly in arrival order and answers
// each with exactly one response frame — the matching *OK type or fErr —
// echoing the request's id. Server-side FIFO processing is what makes the
// ordering semantics of interleaved remote operations identical to the
// lockstep protocol: requests take effect in send order, only the waiting
// overlaps. Every frame the accepting side sends answers a request, so the
// dialing side's in-flight window bounds both directions (transport.go,
// "Backpressure").
//
// A remote IPC travels as fSubmit, whatever its count: a single call is a
// one-entry submission. Each entry is one message in the interposition
// form (appendMsgWire), so the serving kernel's monitors inspect the bytes
// that arrived. Types 6 and 7, the single-call frames of versions 2–4,
// and 16, version 3's credit grant, are unassigned.
const (
	fHello    byte = 1  // version, bootID, NK pub, endorsement cert, nonce, eph X25519 pub
	fHelloOK  byte = 2  // same identity payload + nonce + eph pub + transcript signature
	fHelloAck byte = 3  // transcript signature (client role)
	fConnect  byte = 4  // callerPID, service name
	fConnOK   byte = 5  // public port id
	fXfer     byte = 8  // callerPID, label certificate
	fXferOK   byte = 9  // proxy pid, labelstore handle
	fSetProof byte = 10 // callerPID, op, obj, proof text, credentials
	fOK       byte = 11 // empty success
	fErr      byte = 12 // errno, op, detail
	fSubmit   byte = 13 // callerPID, port id, u32 count, count × (u32 len, message)
	fSubmitOK byte = 14 // count, count × (status, result bytes or error body)
	fXferRe   byte = 15 // callerPID, cert fingerprint, session-key HMAC
)

// Per-op completion status bytes inside an fSubmitOK frame.
const (
	wsOK  byte = 0 // length-prefixed result bytes follow
	wsErr byte = 1 // an error body follows, as in fErr (appendErrBody)
)

// Credential kinds inside an fSetProof frame.
const (
	wcInline  byte = 0 // nal wire-codec formula message
	wcRef     byte = 1 // handle in the caller's proxy labelstore
	wcCert    byte = 2 // full wire certificate; receiver assigns next index
	wcCertRef byte = 3 // backreference to a previously shipped certificate
)

// transportVersion gates the handshake; mismatches fail closed. Version 2
// brought Ed25519 node identity, X25519 session-key agreement, pipelined
// request ids, batched submission and HMAC re-attestation. Version 3 added
// credit-based flow control: receive windows in the signed handshake and
// fCredit grants (type 16) in both directions. Version 4 removes it again,
// with the windows and the grants: the dialer's in-flight window is the
// only bound on a connection, and type 16 is unassigned. Version 5 sends a
// single call as a one-entry fSubmit: the call frames (types 6 and 7) are
// unassigned, and a completion entry's error is one status, wsErr, whose
// body is fErr's.
const transportVersion byte = 5

// maxNetFrame bounds one frame; the splitter enforces it on receive (and
// sizes its buffers by the bytes that arrived, never by a prefix) so a
// hostile length prefix cannot force an unbounded allocation.
const maxNetFrame = 1 << 22

// netCursor is a bounds-checked reader over one frame's payload.
type netCursor struct {
	buf []byte
	off int
}

func (r *netCursor) done() bool { return r.off == len(r.buf) }

func (r *netCursor) remaining() int { return len(r.buf) - r.off }

func (r *netCursor) byte() (byte, bool) {
	if r.off >= len(r.buf) {
		return 0, false
	}
	b := r.buf[r.off]
	r.off++
	return b, true
}

func (r *netCursor) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, false
	}
	r.off += n
	return v, true
}

// bytes reads a length-prefixed field, aliasing the frame buffer.
func (r *netCursor) bytes() ([]byte, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.buf)-r.off) {
		return nil, false
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, true
}

func (r *netCursor) str() (string, bool) {
	b, ok := r.bytes()
	return string(b), ok
}

func appendNetBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendNetString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendErrFrame encodes a failure response for the request with the given
// id.
func appendErrFrame(dst []byte, id uint64, op string, err error) []byte {
	dst = append(dst, fErr)
	dst = binary.AppendUvarint(dst, id)
	return appendErrBody(dst, op, err)
}

// appendErrBody encodes an error as errno, op and detail — the body of an
// fErr frame and of a wsErr completion entry. Kernel ABI errors travel as
// themselves; any other error travels as its errno class (ErrnoOf, so a
// handler error wrapping a kernel sentinel keeps its class), the operation
// op that failed, and its text. EOK marks a handler-level error.
func appendErrBody(dst []byte, op string, err error) []byte {
	if e, ok := err.(*Error); ok {
		dst = binary.AppendUvarint(dst, uint64(e.Errno))
		dst = appendNetString(dst, e.Op)
		return appendNetString(dst, e.Detail)
	}
	dst = binary.AppendUvarint(dst, uint64(ErrnoOf(err)))
	dst = appendNetString(dst, op)
	return appendNetString(dst, err.Error())
}

// errBody decodes an appendErrBody error. A kernel ABI error rebuilds
// its errno class, so errors.Is(err, ErrDenied) works across the wire; a
// handler-level error (EOK) rebuilds as ErrRemoteHandler plus its text.
// ok is false on a torn body.
func (r *netCursor) errBody() (err error, ok bool) {
	en, ok1 := r.uvarint()
	op, ok2 := r.str()
	detail, ok3 := r.str()
	if !ok1 || !ok2 || !ok3 {
		return nil, false
	}
	if Errno(en) == EOK {
		return fmt.Errorf("%w: %s", ErrRemoteHandler, detail), true
	}
	return abiErr(Errno(en), op, detail), true
}

// completion decodes one completion-vector entry: the result bytes of a
// successful operation (nil when empty; they alias the frame) or its
// error. ok is false on a torn entry or an unknown status.
func (r *netCursor) completion() (out []byte, opErr error, ok bool) {
	st, ok := r.byte()
	if !ok {
		return nil, nil, false
	}
	switch st {
	case wsOK:
		if out, ok = r.bytes(); ok && len(out) == 0 {
			out = nil
		}
		return out, nil, ok
	case wsErr:
		opErr, ok = r.errBody()
		return nil, opErr, ok
	}
	return nil, nil, false
}

// unmarshalMsgInto decodes one message of the appendMsgWire format into m,
// reusing m's Args backing array and keeping the previous Op/Obj strings
// when the bytes match — in a homogeneous batch the per-op string cost
// collapses to the first message. With ops non-nil the operation string
// comes from that table instead, so requests alternating among a few
// operations convert none after the first of each. Argument buffers alias
// buf, matching the *Msg lifetime contract (valid for the duration of the
// dispatch). It is the message form's one decoder: submission ingress runs
// it over every entry, and DecodeWire over a fresh Msg (unmarshalMsg).
func unmarshalMsgInto(m *Msg, buf []byte, ops *opTable) bool {
	if len(buf) < 4 {
		return false
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	buf = buf[4:]
	if uint32(len(buf)) < n {
		return false
	}
	if ops != nil {
		m.Op = ops.intern(buf[:n])
	} else if string(buf[:n]) != m.Op {
		m.Op = string(buf[:n])
	}
	buf = buf[n:]
	if len(buf) < 4 {
		return false
	}
	n = binary.LittleEndian.Uint32(buf[:4])
	buf = buf[4:]
	if uint32(len(buf)) < n {
		return false
	}
	if string(buf[:n]) != m.Obj {
		m.Obj = string(buf[:n])
	}
	buf = buf[n:]
	m.Args = m.Args[:0]
	for len(buf) > 0 {
		if len(buf) < 4 {
			return false
		}
		n = binary.LittleEndian.Uint32(buf[:4])
		buf = buf[4:]
		if uint32(len(buf)) < n {
			return false
		}
		m.Args = append(m.Args, buf[:n])
		buf = buf[n:]
	}
	return true
}

// opTable holds the last few operation strings one connection's requests
// named. A peer can make it convert a string per request, never grow it:
// a new operation replaces the entries round-robin.
type opTable struct {
	ops  [4]string
	next int
}

// intern returns the table's string for op, converting and recording op
// when no entry matches.
func (t *opTable) intern(op []byte) string {
	for _, s := range t.ops {
		if s == string(op) {
			return s
		}
	}
	s := string(op)
	t.ops[t.next] = s
	t.next = (t.next + 1) % len(t.ops)
	return s
}
