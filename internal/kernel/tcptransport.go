package kernel

import (
	"errors"
	"net"
	"time"
)

// TCPTransport is the wire-level transport backend: a connection is a TCP
// stream, carrying frames behind 4-byte little-endian length prefixes
// (written by the egress combiner, cut by the splitter). The zero value
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

// tcpConn is one end of a TCP connection. Its errors pass through tcpErr;
// on Linux its splitter reads the socket directly (tcpreader_linux.go).
type tcpConn struct {
	c   net.Conn
	cfg TCPTransport
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

func (t *tcpConn) Read(p []byte) (int, error) {
	n, err := t.c.Read(p)
	if err != nil {
		err = tcpErr("recv", err)
	}
	return n, err
}

// Write writes a run of length-prefixed frames in one write — an egress
// flush.
func (t *tcpConn) Write(p []byte) (int, error) {
	n, err := t.c.Write(p)
	if err != nil {
		err = tcpErr("send", err)
	}
	return n, err
}

func (t *tcpConn) Close() error { return t.c.Close() }
