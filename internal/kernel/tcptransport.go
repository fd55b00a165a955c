package kernel

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// TCPTransport is the wire-level transport backend: frames are
// length-prefixed (4-byte little-endian) over a TCP stream. The zero value
// is ready to use with default timeouts. The attestation-plane handshake
// provides identity and proof of key possession; the stream itself is
// neither encrypted nor authenticated per-frame, which matches the paper's
// trust model — labels are self-authenticating certificates — but means
// deployments that fear active on-path attackers should run it inside an
// authenticated tunnel.
//
// Timeouts: without them, a peer that accepts the TCP connection and then
// goes silent wedges Dial (and with it Session.Connect) forever. Expired
// deadlines surface as ETIMEDOUT through the errno taxonomy, so callers
// can distinguish "peer is slow or gone" from a protocol failure.
type TCPTransport struct {
	// DialTimeout bounds TCP connection establishment. Zero selects the
	// default (5s); negative disables the bound.
	DialTimeout time.Duration
	// HandshakeTimeout bounds the attestation handshake on a fresh
	// connection (both roles). Zero selects the default (10s); negative
	// disables the bound.
	HandshakeTimeout time.Duration
}

// Default transport deadlines (see TCPTransport).
const (
	DefaultDialTimeout      = 5 * time.Second
	DefaultHandshakeTimeout = 10 * time.Second
)

// dialTimeout resolves the configured dial bound.
func (t TCPTransport) dialTimeout() time.Duration {
	if t.DialTimeout == 0 {
		return DefaultDialTimeout
	}
	if t.DialTimeout < 0 {
		return 0
	}
	return t.DialTimeout
}

// handshakeTimeout resolves the configured handshake bound.
func (t TCPTransport) handshakeTimeout() time.Duration {
	if t.HandshakeTimeout == 0 {
		return DefaultHandshakeTimeout
	}
	if t.HandshakeTimeout < 0 {
		return 0
	}
	return t.HandshakeTimeout
}

// Listen binds a TCP address (e.g. "127.0.0.1:0").
func (t TCPTransport) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l, cfg: t}, nil
}

// Dial connects to a listening node, bounded by DialTimeout.
func (t TCPTransport) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, t.dialTimeout())
	if err != nil {
		return nil, tcpErr("dial", err)
	}
	return &tcpConn{c: c, cfg: t}, nil
}

// errFrameTooLarge reports an inbound length prefix above maxNetFrame.
var errFrameTooLarge = errors.New("kernel: inbound frame exceeds maximum size")

type tcpListener struct {
	l   net.Listener
	cfg TCPTransport
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c, cfg: t.cfg}, nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

type tcpConn struct {
	c       net.Conn
	cfg     TCPTransport
	sendMu  sync.Mutex
	recvMu  sync.Mutex
	lenBuf  [4]byte
	rlenBuf [4]byte
	// vec is the reusable writev vector: header and frame go to the kernel
	// in one writev call instead of two Writes (two syscalls and, with
	// Nagle off, two packets for every frame).
	vec [2][]byte
}

// tcpErr classifies transport errors: expired deadlines become typed
// ETIMEDOUT errors (unwrapping to ErrTimeout), everything else passes
// through.
func tcpErr(op string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return abiErr(ETIMEDOUT, op, err.Error())
	}
	return err
}

// SetDeadline bounds every pending and future I/O on the connection; the
// node's handshake uses it (via the connDeadline interface) to bound the
// attestation exchange.
func (t *tcpConn) SetDeadline(d time.Time) error { return t.c.SetDeadline(d) }

// HandshakeTimeout reports the configured handshake bound to the node
// layer (connDeadline interface).
func (t *tcpConn) HandshakeTimeout() time.Duration { return t.cfg.handshakeTimeout() }

func (t *tcpConn) Send(frame []byte) error {
	if len(frame) > maxNetFrame {
		return errors.New("kernel: frame exceeds maximum size")
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	binary.LittleEndian.PutUint32(t.lenBuf[:], uint32(len(frame)))
	t.vec[0] = t.lenBuf[:]
	t.vec[1] = frame
	bufs := net.Buffers(t.vec[:])
	if _, err := bufs.WriteTo(t.c); err != nil {
		return tcpErr("send", err)
	}
	return nil
}

// SendRaw writes a run of already-length-prefixed frames in one Write —
// the egress combiner's contiguous-mode flush (rawWriter interface). The
// caller owns the framing; this is a single ordered write on the stream,
// serialized with Send under the same lock.
func (t *tcpConn) SendRaw(p []byte) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if _, err := t.c.Write(p); err != nil {
		return tcpErr("send", err)
	}
	return nil
}

// Recv blocks for one frame. Post-handshake ingress comes through here
// only where the raw reader does not build: on Linux the connection's
// goroutine reads the socket directly (tcpreader_linux.go), bypassing
// recvMu — safe because blocking Recv is then used only during the
// handshake, strictly before that goroutine starts reading.
func (t *tcpConn) Recv() ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if _, err := io.ReadFull(t.c, t.rlenBuf[:]); err != nil {
		return nil, tcpErr("recv", err)
	}
	n := int(binary.LittleEndian.Uint32(t.rlenBuf[:]))
	if n > maxNetFrame {
		return nil, errFrameTooLarge
	}
	// The buffer grows as the body arrives, doubling, instead of trusting
	// the prefix: the handshake reads the hello through here before the
	// peer is authenticated, and 4 bytes must not pin a maximal frame.
	buf := make([]byte, min(n, recvChunk))
	off := 0
	for {
		if _, err := io.ReadFull(t.c, buf[off:]); err != nil {
			if err == io.EOF && off > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, tcpErr("recv", err)
		}
		if len(buf) == n {
			return buf, nil
		}
		off = len(buf)
		buf = append(buf, make([]byte, min(n-off, off))...)
	}
}

// recvChunk is Recv's first buffer size.
const recvChunk = 16 << 10

func (t *tcpConn) Close() error { return t.c.Close() }
