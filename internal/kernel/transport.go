// Inter-kernel transport: the distributed attestation plane.
//
// A Node attaches a transport endpoint to a running kernel. Two nodes that
// complete the handshake exchange four kinds of traffic, all speaking the
// binary wire vocabulary of wire_net.go:
//
//   - externalized labels: egress signs a label into certificate form under
//     the node's TPM-rooted Nexus key (§2.4); ingress verifies it through
//     the kernel's pre-verification cache and interns the resulting
//     key-attributed formula into the calling proxy's labelstore. A label
//     whose certificate already verified on this connection re-crosses
//     authenticated by an HMAC under the handshake-derived session key —
//     no public-key operation on the warm path;
//   - proof registrations: a remote subject binds a proof (with inline,
//     reference, or certificate credentials) to an access tuple on the
//     serving kernel, exactly as a local setproof would;
//   - remote calls: IPC requests routed into the serving kernel's standard
//     dispatch() pipeline on behalf of a proxy process, so channel checks,
//     authorization, interposition, and auditing apply unchanged;
//   - batched submissions: one frame carrying N operations against one
//     remote port, executed through the flags-preloaded dispatch variant
//     with a pooled marshal arena, answered by one completion-vector frame.
//
// Identity. Each side presents its boot id, its Ed25519 NK public key, and
// the TPM's endorsement of the NK ("key:EK says key:NK speaksfor
// key:EK.nexus" — the endorsement itself stays RSA, because that is what
// TPM silicon signs with), then proves possession of the NK by signing the
// handshake transcript: the peer's nonce plus both sides' ephemeral X25519
// keys, role-tagged so a reflected signature cannot stand in for the other
// side's. Binding the ephemeral keys into the signatures means a
// man-in-the-middle cannot substitute its own key agreement without
// breaking a signature, so the derived session key is shared only by the
// two authenticated kernels. A verified peer is the principal
// key:<NK-fp>.<boot-id> — the same principal the remote kernel uses for
// itself — and every process on it is represented locally by a proxy IPD
// whose principal is the remote process's global name
// (key:<NK>.<boot>.ipd.<pid>). Labels arriving over the connection are
// accepted only if their certificate is signed by the peer's NK and their
// speaker is rooted at the peer's kernel principal; anything else is
// cross-node speaker spoofing and is rejected before it reaches a
// labelstore.
//
// Pipelining. After the handshake every non-credit frame carries a request
// id. The dialing side keeps a pending-call table and may have up to
// TransportConfig.MaxInflight requests outstanding; the window full
// condition surfaces as EAGAIN. The serving side processes requests
// strictly in arrival order, so the observable ordering semantics are
// those of the lockstep protocol — only the waiting overlaps.
//
// Runtime. Each established connection end runs on one goroutine of its
// own (drive, driver.go): the serving side runs its handlers inline, and a
// dialed peer's goroutine delivers responses to the callers waiting on
// them. On Linux a TCP end reads its socket directly and waits in the
// runtime netpoller (tcpreader_linux.go). Frames arrive in the end's pooled
// arena, request frames whose payload cannot escape the exchange are
// recycled after the response is sent, and outbound frames leave through
// per-connection egress combiners (egress.go): frames staged during one
// read burst — responses, credit grants — flush as a single write when the
// burst ends.
//
// Flow control. Each side advertises a receive window in the handshake
// (transport version 3) and every post-handshake non-credit frame consumes
// one send credit toward the peer; credits return in batches via fCredit
// frames, which are exempt from the accounting. A client with no credits
// fails fast with EAGAIN (same taxonomy as the in-flight window); a server
// with no credits parks the connection's pending requests in a bounded
// backlog — bounded because a peer that overruns the advertised window is
// committing a protocol violation and is poisoned. A slow consumer
// therefore stalls its own stream while the kernel's memory stays bounded.
//
// Locking (leaf-ward order, see DESIGN.md "Remote fast path"): Node.mu
// guards the export/listener/peer tables and is never held across
// connection I/O or kernel registry operations; Peer.sendMu serializes
// frame staging and the egress codec state (formula remap, certificate
// dedup, re-attestation table, warm-tag HMAC) but is never held across
// the wire write itself — the combining flusher (flushLocked) releases it
// around the write, so sendMu orders only against the frame-pool lock
// (kernel.Peer.sendMu → kernel.bufPool.mu); Peer.pendMu guards the
// pending-call table, the request-credit counter, and the channel free
// list, and is a leaf — it is never held across I/O, encoding, or any
// other lock; serverConn state (its egress combiner included) needs no
// lock because only the connection's own goroutine touches it. Credit
// frames ride the same egress combiners as everything else: with sendMu
// never held across I/O, a stalled sender cannot hold up a peer's
// goroutine returning credits. Proxy teardown (conn close, Node.Close)
// takes kernel registry locks only after every transport lock is
// released.
package kernel

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// Transport errors.
var (
	ErrTransportClosed = errors.New("kernel: transport closed")
	ErrBadPeer         = errors.New("kernel: peer identity verification failed")
	ErrSpoofedSpeaker  = errors.New("kernel: label speaker not rooted in sending node")

	// ErrRemoteHandler classifies a handler-level error rebuilt from a
	// peer's wire frame: the remote handler itself failed (EOK class, not
	// a kernel ABI error). The original handler text follows the sentinel.
	ErrRemoteHandler = errors.New("kernel: remote handler error")

	// errOversized reports a request or response frame that would exceed
	// maxNetFrame. Such a frame is never staged, so it fails only its own
	// request, with EINVAL, and the connection stays up.
	errOversized = errors.New("frame exceeds maximum size")
)

// Conn is a reliable, ordered, framed byte pipe between two nodes. Send
// transfers ownership of the frame; Recv returns frames owned by the
// caller. Close unblocks both directions on both ends.
type Conn interface {
	Send(frame []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Listener accepts inbound transport connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the bound address in the transport's own notation.
	Addr() string
}

// Transport is a connection factory: the in-memory loopback for tests and
// single-process experiments, TCP for real inter-machine deployment.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// Node is a kernel's endpoint on the attestation plane.
type Node struct {
	k   *Kernel
	cfg TransportConfig // resolved (withDefaults applied)

	mu        sync.Mutex
	exports   map[string]int // service name → public port id
	trustedEK map[string]bool
	listeners []Listener
	conns     map[Conn]bool  // accepted connections, for Close
	peers     map[*Peer]bool // dialed connections, for Close
	closed    bool

	// nconns counts accepted connections (handshaking + established) for
	// the shed-load gate.
	nconns atomic.Int64

	// wg counts the node's goroutines: the accept loops and one per
	// connection end.
	wg sync.WaitGroup
}

// NewNode attaches a transport endpoint to the kernel with the default
// runtime configuration.
func NewNode(k *Kernel) *Node { return NewNodeWithConfig(k, TransportConfig{}) }

// NewNodeWithConfig attaches a transport endpoint with an explicit runtime
// configuration; zero fields select their defaults.
func NewNodeWithConfig(k *Kernel, cfg TransportConfig) *Node {
	cfg = cfg.withDefaults()
	return &Node{
		k:         k,
		cfg:       cfg,
		exports:   map[string]int{},
		trustedEK: map[string]bool{},
		conns:     map[Conn]bool{},
		peers:     map[*Peer]bool{},
	}
}

// Kernel returns the kernel this node fronts.
func (n *Node) Kernel() *Kernel { return n.k }

// Export publishes a port under a service name peers can Connect to.
func (n *Node) Export(service string, portID int) error {
	if _, ok := n.k.ports.find(portID); !ok {
		return ErrNoSuchPort
	}
	n.mu.Lock()
	n.exports[service] = portID
	n.mu.Unlock()
	return nil
}

// Unexport withdraws a service name.
func (n *Node) Unexport(service string) {
	n.mu.Lock()
	delete(n.exports, service)
	n.mu.Unlock()
}

// TrustEK adds a TPM endorsement-key fingerprint to the allowlist. With a
// non-empty allowlist, handshakes from platforms with any other EK fail;
// with an empty one any genuine platform connects and trust decisions fall
// entirely to guards reasoning over key principals.
func (n *Node) TrustEK(ekFP string) {
	n.mu.Lock()
	n.trustedEK[ekFP] = true
	n.mu.Unlock()
}

// Serve starts accepting peer connections on the listener; it returns
// immediately and serves each connection on a goroutine of its own until
// the node closes.
// Beyond TransportConfig.MaxConns the node sheds load gracefully: the
// connection is accepted, answered with a typed EAGAIN error frame, and
// closed — the dialer sees a clean retryable error, never a silent drop.
func (n *Node) Serve(l Listener) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		l.Close()
		return
	}
	n.listeners = append(n.listeners, l)
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if n.nconns.Load() >= int64(n.cfg.MaxConns) {
				n.k.metrics.add(0, mNetShed, 1)
				n.wg.Add(1)
				// Reject off the accept loop so a slow rejected dialer
				// cannot stall further accepts.
				go func(c Conn) {
					defer n.wg.Done()
					c.Send(appendErrFrame(nil, 0, "accept",
						abiErr(EAGAIN, "accept", "node connection limit reached")))
					c.Close()
				}(c)
				continue
			}
			n.mu.Lock()
			if n.closed {
				n.mu.Unlock()
				c.Close()
				return
			}
			n.conns[c] = true
			n.mu.Unlock()
			n.nconns.Add(1)
			n.k.metrics.netConns.Add(1)
			n.wg.Add(1)
			go n.serveConn(c)
		}
	}()
}

// Close tears the node down: listeners stop accepting, every connection is
// closed (which exits the proxies it created), and dialed peers become
// unusable. The kernel itself keeps running.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	ls := n.listeners
	n.listeners = nil
	conns := make([]Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.conns = map[Conn]bool{}
	peers := make([]*Peer, 0, len(n.peers))
	for p := range n.peers {
		peers = append(peers, p)
	}
	n.peers = map[*Peer]bool{}
	n.mu.Unlock()

	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		p.Close()
	}
	n.wg.Wait()
}

// identity is one side's handshake material.
type identity struct {
	bootID      string
	nkPub       ed25519.PublicKey
	nkFP, ekFP  string
	endorsement *cert.Certificate
}

// prin returns the kernel principal the identity authenticates.
func (id *identity) prin() nal.Principal {
	return nal.SubOf(nal.Key(id.nkFP), id.bootID)
}

// localIdentity collects this node's handshake material.
func (n *Node) localIdentity() (*identity, error) {
	end, err := n.k.nkEndorsement()
	if err != nil {
		return nil, err
	}
	return &identity{
		bootID:      n.k.BootID,
		nkPub:       n.k.NK.Public().(ed25519.PublicKey),
		nkFP:        n.k.nkFP,
		ekFP:        n.k.TPM.EKFingerprint(),
		endorsement: end,
	}, nil
}

// appendIdentity encodes bootID, NK public key, and endorsement.
func appendIdentity(dst []byte, id *identity) []byte {
	dst = appendNetString(dst, id.bootID)
	dst = appendNetBytes(dst, id.nkPub)
	return appendNetBytes(dst, id.endorsement.AppendWire(nil))
}

// verifyIdentity decodes and verifies a peer's handshake material: the
// endorsement must be a well-formed, signed "key:NK speaksfor
// key:EK.nexus" statement and the presented NK public key must match the
// fingerprint the endorsement names. Possession of the NK's private half
// is proven separately by the transcript signature.
func (n *Node) verifyIdentity(r *netCursor) (*identity, error) {
	bootID, ok := r.str()
	if !ok {
		return nil, ErrBadPeer
	}
	pubRaw, ok := r.bytes()
	if !ok || len(pubRaw) != ed25519.PublicKeySize {
		return nil, ErrBadPeer
	}
	endWire, ok := r.bytes()
	if !ok {
		return nil, ErrBadPeer
	}
	// Copy out of the frame: the identity outlives the handshake exchange.
	pub := ed25519.PublicKey(append([]byte(nil), pubRaw...))
	end, _, err := cert.DecodeCertWire(endWire)
	if err != nil {
		return nil, ErrBadPeer
	}
	label, err := end.ToLabel()
	if err != nil {
		return nil, fmt.Errorf("%w: endorsement invalid: %v", ErrBadPeer, err)
	}
	says, ok2 := label.(nal.Says)
	if !ok2 {
		return nil, ErrBadPeer
	}
	ek, ok2 := says.P.(nal.Key)
	if !ok2 {
		return nil, ErrBadPeer
	}
	sf, ok2 := says.F.(nal.SpeaksFor)
	if !ok2 || sf.On != nil {
		return nil, ErrBadPeer
	}
	nk, ok2 := sf.A.(nal.Key)
	if !ok2 {
		return nil, ErrBadPeer
	}
	// The endorsement's object must be the EK's own nexus subprincipal:
	// key:EK.nexus, spoken by key:EK itself.
	sub, ok2 := sf.B.(nal.Sub)
	if !ok2 || sub.Tag != "nexus" || !sub.Parent.EqualPrin(ek) {
		return nil, ErrBadPeer
	}
	if cert.FingerprintEd25519(pub) != string(nk) {
		return nil, fmt.Errorf("%w: NK key does not match endorsement", ErrBadPeer)
	}
	n.mu.Lock()
	trusted := len(n.trustedEK) == 0 || n.trustedEK[string(ek)]
	n.mu.Unlock()
	if !trusted {
		return nil, fmt.Errorf("%w: platform EK %s not trusted", ErrBadPeer, ek)
	}
	return &identity{bootID: bootID, nkPub: pub, nkFP: string(nk), ekFP: string(ek), endorsement: end}, nil
}

// helloDigest is the proof-of-possession transcript digest: role-tagged so
// a reflected signature cannot stand in for the other side's, covering
// both ephemeral X25519 keys so a man-in-the-middle cannot splice its own
// key agreement into an otherwise authentic handshake, and covering both
// advertised receive windows so an attacker cannot shrink (or inflate) a
// side's flow-control window without breaking a signature.
func helloDigest(role string, nonce, cliEph, srvEph []byte, cliWin, srvWin int) [32]byte {
	h := sha256.New()
	h.Write([]byte("nexus-transport-hello/3/"))
	h.Write([]byte(role))
	h.Write([]byte{0})
	h.Write(nonce)
	h.Write([]byte{0})
	h.Write(cliEph)
	h.Write([]byte{0})
	h.Write(srvEph)
	h.Write([]byte{0})
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:8], uint64(cliWin))
	binary.LittleEndian.PutUint64(w[8:], uint64(srvWin))
	h.Write(w[:])
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func signHello(key ed25519.PrivateKey, role string, nonce, cliEph, srvEph []byte, cliWin, srvWin int) []byte {
	d := helloDigest(role, nonce, cliEph, srvEph, cliWin, srvWin)
	return ed25519.Sign(key, d[:])
}

func verifyHello(pub ed25519.PublicKey, role string, nonce, cliEph, srvEph, sig []byte, cliWin, srvWin int) error {
	d := helloDigest(role, nonce, cliEph, srvEph, cliWin, srvWin)
	if !ed25519.Verify(pub, d[:], sig) {
		return fmt.Errorf("%w: transcript signature invalid", ErrBadPeer)
	}
	return nil
}

// validWindow checks an advertised receive window against protocol bounds.
func validWindow(w uint64) bool { return w >= 1 && w <= maxRecvWindow }

// deriveSessionKey produces the per-connection symmetric key from the
// X25519 shared secret and both handshake nonces. Both sides compute the
// same value; it authenticates warm re-attestations for the life of the
// connection and is never written to the wire.
func deriveSessionKey(shared, cliNonce, srvNonce []byte) []byte {
	mac := hmac.New(sha256.New, shared)
	mac.Write([]byte("nexus-session/3"))
	mac.Write([]byte{0})
	mac.Write(cliNonce)
	mac.Write([]byte{0})
	mac.Write(srvNonce)
	return mac.Sum(nil)
}

// reTagger authenticates warm label re-crossings: an HMAC under the
// session key over the target pid and the certificate fingerprint. Only
// the two handshake parties hold the key, so a tag proves the request
// originated on the authenticated peer — the property the cold path got
// from the certificate signature itself. The keyed HMAC state and the
// scratch buffers are cached per connection (confinement is the owner's:
// Peer.sendMu on the dialing side, the connection's goroutine on the
// serving side), so a warm crossing computes its tag without allocating.
type reTagger struct {
	mac     hash.Hash
	scratch []byte // string→bytes staging for the fingerprint
	tagBuf  []byte // Sum output, valid until the next tag call
}

var xferReLabel = []byte("nexus-xfer-re")

func newReTagger(sessKey []byte) *reTagger {
	return &reTagger{mac: hmac.New(sha256.New, sessKey)}
}

// tag computes the re-attestation tag for (callerPID, fp); the result is
// owned by the tagger and valid until the next call.
func (rt *reTagger) tag(callerPID int, fp string) []byte {
	rt.mac.Reset()
	rt.mac.Write(xferReLabel)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(callerPID))
	rt.mac.Write(b[:])
	rt.scratch = append(rt.scratch[:0], fp...)
	rt.mac.Write(rt.scratch)
	rt.tagBuf = rt.mac.Sum(rt.tagBuf[:0])
	return rt.tagBuf
}

// ---- Dialing side -------------------------------------------------------

// netResp is one matched response as delivered by the peer's goroutine.
type netResp struct {
	typ     byte
	payload []byte // after type byte and request id
}

// Peer is a verified connection to a remote node, usable by any session on
// this kernel. Requests are pipelined: up to TransportConfig.MaxInflight
// may be outstanding (more fail with EAGAIN), matched to callers by
// request id through the pending table. The egress codec tables (formula
// remap, certificate dedup, re-attestation) are per-peer, guarded by
// sendMu. The peer's own goroutine reads response frames and delivers them
// through onFrame.
type Peer struct {
	n *Node
	c Conn

	// sendMu serializes frame staging and the egress codec state. Because
	// the server processes frames in arrival order, whatever order frames
	// are staged under sendMu is the order they take effect remotely. It is
	// never held across the wire write: flushLocked releases it around the
	// write, so staging only ever waits on encoding, not on I/O.
	sendMu   sync.Mutex
	enc      *nal.WireEncoder
	certIdx  map[string]uint64 // cert fingerprint → wire index (1-based)
	attested *lruTable[bool]   // cert fingerprints verified on this conn
	eg       *egress           // outbound combiner (staging under sendMu)
	flushing bool              // a combining flush is in progress (sendMu)
	reTag    *reTagger         // warm re-attestation tags (sendMu)

	// pendMu guards the pending-call table, the request-credit counter, and
	// the response-channel free list; it is a leaf lock, never held across
	// I/O or any other lock.
	pendMu   sync.Mutex
	pending  map[uint64]chan netResp
	chanFree []chan netResp // pooled single-use response channels
	nextID   uint64
	poisoned bool
	// reqCredits is the send window toward the server: initialized to the
	// server's advertised receive window, consumed one per request frame,
	// replenished by inbound fCredit frames (clamped at the advertised
	// window, so a hostile over-grant cannot widen the stream).
	reqCredits int

	// maxInflight and srvWin are this connection's resolved limits:
	// the pipelined-request cap and the server's advertised window.
	maxInflight int
	srvWin      int
	// myWin is the window we advertised; respSeen counts responses
	// delivered since the last credit return. Both are confined to the
	// peer's goroutine.
	myWin    int
	respSeen int

	// sessKey is the handshake-derived session key (see deriveSessionKey).
	sessKey []byte

	prin   nal.Principal // key:<NK>.<boot>
	nkFP   string
	ekFP   string
	bootID string

	// mkey selects this peer's metrics counter stripe.
	mkey uint64

	closed atomic.Bool
}

// connCounter hands out metrics stripe keys, one per connection in either
// role, so concurrent connections write disjoint counter stripes.
var connCounter atomic.Uint64

// connDeadline is the optional Conn extension the node layer uses to
// bound the attestation handshake: a transport that can set wire deadlines
// exposes them here (tcpConn does), and the handshake runs under the
// transport's configured HandshakeTimeout. Transports without deadlines
// (loopback) handshake unbounded, as before.
type connDeadline interface {
	SetDeadline(t time.Time) error
	HandshakeTimeout() time.Duration
}

// beginHandshake arms the handshake deadline on conns that support one and
// returns the disarm func (clears the deadline so the established peer is
// not reaped by it later).
func beginHandshake(c Conn) func() {
	dc, ok := c.(connDeadline)
	if !ok {
		return func() {}
	}
	d := dc.HandshakeTimeout()
	if d <= 0 {
		return func() {}
	}
	dc.SetDeadline(time.Now().Add(d))
	return func() { dc.SetDeadline(time.Time{}) }
}

// Dial connects to a remote node, runs the identity handshake in both
// directions, and returns the verified peer. Dial and handshake are
// bounded by the transport's configured timeouts (for TCPTransport:
// DialTimeout and HandshakeTimeout); expiry surfaces as ETIMEDOUT.
func (n *Node) Dial(t Transport, addr string) (*Peer, error) {
	c, err := t.Dial(addr)
	if err != nil {
		return nil, err
	}
	p, err := n.handshakeClient(c)
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			n.k.metrics.add(0, mNetTimeouts, 1)
		}
		c.Close()
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, ErrTransportClosed
	}
	n.peers[p] = true
	n.wg.Add(1)
	n.mu.Unlock()
	n.k.metrics.netConns.Add(1)
	go func() {
		defer n.wg.Done()
		drive(readerFor(c, n.k.metrics, p.mkey), p.onFrame, nil)
		p.fail()
		n.mu.Lock()
		delete(n.peers, p)
		n.mu.Unlock()
		n.k.metrics.netConns.Add(-1)
	}()
	return p, nil
}

func (n *Node) handshakeClient(c Conn) (*Peer, error) {
	defer beginHandshake(c)()
	self, err := n.localIdentity()
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	ephPub := eph.PublicKey().Bytes()
	myWin := n.cfg.RecvWindow
	frame := []byte{fHello, transportVersion}
	frame = appendIdentity(frame, self)
	frame = binary.AppendUvarint(frame, uint64(myWin))
	frame = appendNetBytes(frame, nonce)
	frame = appendNetBytes(frame, ephPub)
	if err := c.Send(frame); err != nil {
		// A shedding node queues its rejection and closes, which can beat
		// our hello: report the rejection it left behind, if there is one.
		if resp, rerr := c.Recv(); rerr == nil && len(resp) > 0 && resp[0] == fErr {
			return nil, rejectErr(resp)
		}
		return nil, err
	}
	resp, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if len(resp) > 0 && resp[0] == fErr {
		return nil, rejectErr(resp)
	}
	if len(resp) == 0 || resp[0] != fHelloOK {
		return nil, ErrBadPeer
	}
	r := &netCursor{buf: resp[1:]}
	peer, err := n.verifyIdentity(r)
	if err != nil {
		return nil, err
	}
	srvWin, ok := r.uvarint()
	if !ok || !validWindow(srvWin) {
		return nil, ErrBadPeer
	}
	srvNonce, ok := r.bytes()
	if !ok {
		return nil, ErrBadPeer
	}
	srvEphRaw, ok := r.bytes()
	if !ok {
		return nil, ErrBadPeer
	}
	sig, ok := r.bytes()
	if !ok || !r.done() {
		return nil, ErrBadPeer
	}
	if err := verifyHello(peer.nkPub, "server", nonce, ephPub, srvEphRaw, sig, myWin, int(srvWin)); err != nil {
		return nil, err
	}
	srvEph, err := ecdh.X25519().NewPublicKey(srvEphRaw)
	if err != nil {
		return nil, ErrBadPeer
	}
	shared, err := eph.ECDH(srvEph)
	if err != nil {
		return nil, ErrBadPeer
	}
	ackSig := signHello(n.k.NK, "client", srvNonce, ephPub, srvEphRaw, myWin, int(srvWin))
	ack := []byte{fHelloAck}
	ack = appendNetBytes(ack, ackSig)
	if err := c.Send(ack); err != nil {
		return nil, err
	}
	sessKey := deriveSessionKey(shared, nonce, srvNonce)
	mkey := connCounter.Add(1)
	return &Peer{
		n: n, c: c,
		enc:         nal.NewWireEncoder(),
		certIdx:     map[string]uint64{},
		attested:    newLRUTable[bool](n.cfg.ReattestCap),
		eg:          newEgress(c, n.k.metrics, mkey),
		reTag:       newReTagger(sessKey),
		pending:     map[uint64]chan netResp{},
		reqCredits:  int(srvWin),
		maxInflight: n.cfg.MaxInflight,
		srvWin:      int(srvWin),
		myWin:       myWin,
		sessKey:     sessKey,
		prin:        peer.prin(),
		nkFP:        peer.nkFP,
		ekFP:        peer.ekFP,
		bootID:      peer.bootID,
		mkey:        mkey,
	}, nil
}

// rejectErr decodes a pre-handshake fErr frame: the node shed our
// connection, and the typed errno (EAGAIN: retry later or elsewhere)
// surfaces to the dialer.
func rejectErr(resp []byte) error {
	r := &netCursor{buf: resp[1:]}
	if _, ok := r.uvarint(); ok {
		en, ok1 := r.uvarint()
		op, ok2 := r.str()
		detail, ok3 := r.str()
		if ok1 && ok2 && ok3 && Errno(en) != EOK {
			return abiErr(Errno(en), op, detail)
		}
	}
	return ErrBadPeer
}

// KernelPrin returns the remote kernel's principal, key:<NK-fp>.<boot-id>.
func (p *Peer) KernelPrin() nal.Principal { return p.prin }

// NKFingerprint returns the remote Nexus key fingerprint.
func (p *Peer) NKFingerprint() string { return p.nkFP }

// EKFingerprint returns the remote platform's endorsement key fingerprint.
func (p *Peer) EKFingerprint() string { return p.ekFP }

// Pending reports the number of in-flight requests (tests, introspection).
func (p *Peer) Pending() int {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	return len(p.pending)
}

// Close tears down the connection; the remote side exits the proxies this
// peer's traffic created, and every in-flight call fails with
// ErrTransportClosed.
func (p *Peer) Close() { p.fail() }

// fail poisons the peer: the connection closes, the pending table drains
// (every waiter's channel is closed, which it reads as ErrTransportClosed),
// and no new request can enter. Idempotent; callable from any goroutine.
func (p *Peer) fail() {
	if p.closed.CompareAndSwap(false, true) {
		p.c.Close()
	}
	p.pendMu.Lock()
	p.poisoned = true
	pend := p.pending
	p.pending = nil
	p.pendMu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
}

// onFrame is the peer's demultiplexer, run on the peer's goroutine: it
// matches response frames to pending requests by id and absorbs fCredit
// grants. Returning false tears the connection down — any torn frame,
// malformed credit, or response to an id we never sent poisons the
// connection, because once a frame may have been lost the per-connection
// codec tables on the two sides can disagree, and a desynced table would
// resolve backreferences to the wrong values silently. Poisoning turns
// that silent corruption into ErrTransportClosed.
//
// Response payloads escape to the waiting caller, so response frames are
// never recycled into the arena; credit frames are.
func (p *Peer) onFrame(frame []byte, ar *netArena) bool {
	m := p.n.k.metrics
	m.add(p.mkey, mNetRecvs, 1)
	m.add(p.mkey, mNetRecvBytes, uint64(len(frame)))
	if len(frame) >= 1 && frame[0] == fCredit {
		r := &netCursor{buf: frame[1:]}
		nc, ok := r.uvarint()
		if !ok || !r.done() {
			return false
		}
		p.pendMu.Lock()
		// Clamp at the advertised window: a hostile or buggy over-grant
		// must never unblock the stream past what the server advertised.
		// The comparison order is overflow-safe for any uint64 count.
		if nc >= uint64(p.srvWin) || p.reqCredits+int(nc) > p.srvWin {
			p.reqCredits = p.srvWin
		} else {
			p.reqCredits += int(nc)
		}
		p.pendMu.Unlock()
		ar.put(frame)
		return true
	}
	if len(frame) < 2 {
		return false
	}
	r := &netCursor{buf: frame[1:]}
	id, ok := r.uvarint()
	if !ok {
		return false
	}
	p.pendMu.Lock()
	var ch chan netResp
	if p.pending != nil {
		ch = p.pending[id]
		delete(p.pending, id)
	}
	p.pendMu.Unlock()
	if ch == nil {
		// A response to a request we never made (hostile or duplicated
		// id): the streams are no longer in agreement.
		return false
	}
	ch <- netResp{typ: frame[0], payload: frame[1+r.off:]}
	// Return receive credits in batches once half our window has been
	// consumed. Credits ride the egress combiner like every other frame:
	// sendMu is never held across I/O, so the peer's goroutine waits at
	// most for a caller's encoding, never for a stalled wire — and a credit
	// staged while a caller's flush is in flight coalesces into it.
	p.respSeen++
	if 2*p.respSeen >= p.myWin {
		grant := uint64(p.respSeen)
		p.respSeen = 0
		p.sendMu.Lock()
		b := p.eg.begin()
		b = append(b, fCredit)
		b = binary.AppendUvarint(b, grant)
		err := p.commitFlush(b)
		p.sendMu.Unlock()
		if err != nil {
			return false
		}
	}
	return true
}

// begin registers a new in-flight request: it allocates the id, checks the
// in-flight window and the send-credit window, and returns the channel the
// peer's goroutine will deliver on. The depth histogram samples the
// pending-table size each request observes.
func (p *Peer) begin(op string) (uint64, chan netResp, error) {
	if p.closed.Load() {
		return 0, nil, ErrTransportClosed
	}
	p.pendMu.Lock()
	if p.poisoned {
		p.pendMu.Unlock()
		return 0, nil, ErrTransportClosed
	}
	if len(p.pending) >= p.maxInflight {
		p.pendMu.Unlock()
		return 0, nil, abiErr(EAGAIN, op, "transport in-flight window full")
	}
	if p.reqCredits <= 0 {
		p.pendMu.Unlock()
		return 0, nil, abiErr(EAGAIN, op, "transport send window exhausted")
	}
	var ch chan netResp
	if n := len(p.chanFree); n > 0 {
		ch = p.chanFree[n-1]
		p.chanFree[n-1] = nil
		p.chanFree = p.chanFree[:n-1]
	} else {
		//nexus:coldpath — the free list warms up to the in-flight window.
		ch = make(chan netResp, 1)
	}
	p.reqCredits--
	p.nextID++
	id := p.nextID
	p.pending[id] = ch
	depth := len(p.pending)
	p.pendMu.Unlock()
	p.n.k.metrics.netDepth.observeCount(uint64(depth))
	return id, ch, nil
}

// putChan recycles a single-use response channel. Only channels already
// removed from the pending table may be pooled: fail() closes every
// channel it finds there, and a closed channel must never reach a new
// request — hence the poisoned check, under the same pendMu that fail()
// drains the table under.
func (p *Peer) putChan(ch chan netResp) {
	p.pendMu.Lock()
	if !p.poisoned && len(p.chanFree) < p.maxInflight {
		p.chanFree = append(p.chanFree, ch)
	}
	p.pendMu.Unlock()
}

// abort removes a pending entry whose request was never (fully) sent and
// restores its send credit. A channel still in the table was never
// reached by the peer's goroutine (it removes entries before delivering)
// nor by fail() (which empties the table before closing), so it is clean
// to pool.
func (p *Peer) abort(id uint64) {
	p.pendMu.Lock()
	if p.pending != nil {
		if ch, ok := p.pending[id]; ok {
			delete(p.pending, id)
			p.reqCredits++
			if !p.poisoned && len(p.chanFree) < p.maxInflight {
				p.chanFree = append(p.chanFree, ch)
			}
		}
	}
	p.pendMu.Unlock()
}

// flushLocked drains the egress combiner, releasing sendMu around the wire
// write so staging never waits on I/O. Exactly one flusher runs at a time
// (flushing): a stager that finds a flush in progress just returns — its
// frames are in the staged half the flusher re-checks after every write —
// and a write failure surfaces to that stager through fail(), which closes
// its pending channel. Called with sendMu held; returns with it held.
func (p *Peer) flushLocked() error {
	if p.flushing {
		return nil
	}
	p.flushing = true
	var err error
	for err == nil && p.eg.pend > 0 {
		buf, frames, n := p.eg.take()
		p.sendMu.Unlock()
		werr := p.eg.write(buf, frames, n)
		p.sendMu.Lock()
		p.eg.release(buf, frames)
		err = werr
	}
	p.flushing = false
	if err != nil && errors.Is(err, ErrTimeout) { //nexus:coldpath — write-failure accounting
		p.n.k.metrics.add(p.mkey, mNetTimeouts, 1)
	}
	return err
}

// commitFlush seals the frame begun on the egress combiner and flushes; a
// frame larger than maxNetFrame is abandoned instead (errOversized).
// Called with sendMu held. The seal-and-flush path is pooled end to end
// (pinned by TestAllocRemoteCallWarm).
//
//nexus:noalloc
func (p *Peer) commitFlush(b []byte) error {
	if p.eg.size(b) > maxNetFrame {
		p.eg.abandon(b)
		return errOversized
	}
	n := p.eg.commit(b)
	m := p.n.k.metrics
	m.add(p.mkey, mNetSends, 1)
	m.add(p.mkey, mNetSendBytes, uint64(n))
	return p.flushLocked()
}

// sendOwned stages one fully built frame (taking ownership of it) and
// flushes — the batch-submission egress (pinned by
// TestAllocSubmitRemoteBatchWarm). A frame larger than maxNetFrame is
// dropped instead (errOversized).
//
//nexus:noalloc
func (p *Peer) sendOwned(frame []byte) error {
	if len(frame) > maxNetFrame {
		putFrameBuf(frame)
		return errOversized
	}
	p.sendMu.Lock()
	m := p.n.k.metrics
	m.add(p.mkey, mNetSends, 1)
	m.add(p.mkey, mNetSendBytes, uint64(len(frame)))
	p.eg.stage(frame)
	err := p.flushLocked()
	p.sendMu.Unlock()
	return err
}

// await blocks until the receive loop delivers the response for this
// request (or the peer fails). It decodes fErr frames into errors: kernel
// ABI failures rebuild their errno class (so errors.Is(err, ErrDenied)
// works across the wire), handler-level failures rebuild as plain errors.
// A response of an unexpected type poisons the connection.
func (p *Peer) await(t0 time.Time, ch chan netResp, wantType byte) ([]byte, error) {
	resp, ok := <-ch
	if !ok {
		return nil, ErrTransportClosed
	}
	// Delivery happened, so the peer's goroutine already removed the channel
	// from the pending table; it is single-use and clean to recycle.
	p.putChan(ch)
	p.n.k.metrics.netReqNs.observe(time.Since(t0))
	if resp.typ == fErr {
		r := &netCursor{buf: resp.payload}
		en, ok1 := r.uvarint()
		op, ok2 := r.str()
		detail, ok3 := r.str()
		if !ok1 || !ok2 || !ok3 {
			p.fail()
			return nil, ErrTransportClosed
		}
		if Errno(en) == EOK {
			return nil, fmt.Errorf("%w: %s", ErrRemoteHandler, detail)
		}
		return nil, abiErr(Errno(en), op, detail)
	}
	if resp.typ != wantType {
		p.fail()
		return nil, ErrTransportClosed
	}
	return resp.payload, nil
}

// sendErr wraps a failed send and aborts our pending entry. An oversized
// frame was never staged, so it fails only this request, with EINVAL; any
// other failure poisons the peer and surfaces ErrTransportClosed.
func (p *Peer) sendErr(id uint64, err error) error {
	p.abort(id)
	if err == errOversized {
		return abiErr(EINVAL, "transport", err.Error())
	}
	p.fail()
	return fmt.Errorf("%w: %v", ErrTransportClosed, err)
}

// connect asks the remote node for the public port behind a service name
// and grants the caller's proxy a channel to it.
func (p *Peer) connect(callerPID int, service string) (int, error) {
	id, ch, err := p.begin("connect")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	p.sendMu.Lock()
	b := p.eg.begin()
	b = append(b, fConnect)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(callerPID))
	b = appendNetString(b, service)
	err = p.commitFlush(b)
	p.sendMu.Unlock()
	if err != nil {
		return 0, p.sendErr(id, err)
	}
	resp, err := p.await(t0, ch, fConnOK)
	if err != nil {
		return 0, err
	}
	r := &netCursor{buf: resp}
	port, ok := r.uvarint()
	if !ok {
		p.fail()
		return 0, ErrTransportClosed
	}
	return int(port), nil
}

// call forwards one IPC request to the remote port.
func (p *Peer) call(callerPID, portID int, m *Msg) ([]byte, error) {
	id, ch, err := p.begin(m.Op)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p.sendMu.Lock()
	b := p.eg.begin()
	b = append(b, fCall)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(callerPID))
	b = binary.AppendUvarint(b, uint64(portID))
	b = appendMsgFields(b, m)
	err = p.commitFlush(b)
	p.sendMu.Unlock()
	if err != nil {
		return nil, p.sendErr(id, err)
	}
	resp, err := p.await(t0, ch, fCallOK)
	if err != nil {
		return nil, err
	}
	r := &netCursor{buf: resp}
	out, ok := r.bytes()
	if !ok {
		p.fail()
		return nil, ErrTransportClosed
	}
	if len(out) == 0 {
		return nil, nil
	}
	// The response frame is exclusively ours; hand the result out directly.
	return out, nil
}

// submit ships a pre-built fSubmit frame (taking ownership of it) and
// returns the completion-vector payload. The frame must already carry the
// request id from begin.
func (p *Peer) submit(id uint64, ch chan netResp, t0 time.Time, frame []byte) ([]byte, error) {
	if err := p.sendOwned(frame); err != nil {
		return nil, p.sendErr(id, err)
	}
	return p.await(t0, ch, fSubmitOK)
}

// xferLabel ships an externalized label; the remote side verifies it and
// interns it into the caller's proxy labelstore, returning (proxy pid,
// label handle) for use as a reference credential in later proofs.
//
// The first crossing of a certificate ships it whole and pays the
// signature verification on the far side; once that succeeds the
// fingerprint is marked attested for this connection, and every later
// crossing sends only the fingerprint plus an HMAC under the session key
// (fXferRe) — the warm path does no public-key cryptography on either
// side. Re-attestation state is per-connection (a new connection always
// re-verifies) and LRU-bounded on both sides: if the server has evicted a
// fingerprint we still remember (the two tables need not agree — caps may
// differ between nodes), the warm attempt fails with EACCES and we retry
// cold, at the cost of one extra round trip. A certificate revoked since
// its cold crossing takes the same path and then fails the cold
// verification properly.
func (p *Peer) xferLabel(callerPID int, ext *ExternalLabel) (int, int, error) {
	fp := ext.LabelCert.Fingerprint()
	p.sendMu.Lock()
	_, warm := p.attested.get(fp)
	p.sendMu.Unlock()
	if warm {
		pid, handle, err := p.xferOnce(callerPID, fp, nil)
		if err == nil {
			return pid, handle, nil
		}
		if !errors.Is(err, ErrDenied) {
			return 0, 0, err
		}
		// The server no longer honors the fingerprint (its table evicted
		// it, or the certificate was revoked): forget it and go cold.
		p.sendMu.Lock()
		p.attested.remove(fp)
		p.sendMu.Unlock()
	}
	pid, handle, err := p.xferOnce(callerPID, fp, ext.LabelCert)
	if err != nil {
		return 0, 0, err
	}
	p.sendMu.Lock()
	p.attested.put(fp, true)
	p.sendMu.Unlock()
	return pid, handle, nil
}

// xferOnce performs one label-transfer exchange: warm (fXferRe by
// fingerprint + session-key HMAC) when lc is nil, cold (fXfer with the
// full certificate) otherwise.
func (p *Peer) xferOnce(callerPID int, fp string, lc *cert.Certificate) (int, int, error) {
	id, ch, err := p.begin("xferlabel")
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	p.sendMu.Lock()
	b := p.eg.begin()
	if lc == nil {
		b = append(b, fXferRe)
		b = binary.AppendUvarint(b, id)
		b = binary.AppendUvarint(b, uint64(callerPID))
		b = appendNetString(b, fp)
		b = appendNetBytes(b, p.reTag.tag(callerPID, fp))
	} else {
		b = append(b, fXfer)
		b = binary.AppendUvarint(b, id)
		b = binary.AppendUvarint(b, uint64(callerPID))
		b = appendNetBytes(b, lc.AppendWire(nil))
	}
	err = p.commitFlush(b)
	p.sendMu.Unlock()
	if err != nil {
		return 0, 0, p.sendErr(id, err)
	}
	resp, err := p.await(t0, ch, fXferOK)
	if err != nil {
		return 0, 0, err
	}
	r := &netCursor{buf: resp}
	pid, ok1 := r.uvarint()
	handle, ok2 := r.uvarint()
	if !ok1 || !ok2 {
		p.fail()
		return 0, 0, ErrTransportClosed
	}
	return int(pid), int(handle), nil
}

// RemoteCred is one credential in a remote proof registration: exactly one
// field is set. Inline formulas travel through the per-connection formula
// codec; Ref names a label handle previously deposited in the caller's
// proxy labelstore by TransferLabelRemote; Cert ships a certificate
// (deduplicated per connection by fingerprint).
type RemoteCred struct {
	Inline nal.Formula
	Ref    int
	Cert   *cert.Certificate
}

// setProof registers a proof for the caller's proxy on the remote kernel.
// Frame assembly holds sendMu throughout: encoding inline credentials
// advances the per-connection remap/dedup tables, and the server commits
// the same state in arrival order — which, with sends serialized, is
// assembly order. A frame that advanced those tables and then failed to
// leave poisons the peer, because the two sides' numbering no longer
// agrees.
func (p *Peer) setProof(callerPID int, op, obj string, pf *proof.Proof, creds []RemoteCred) error {
	id, ch, err := p.begin("setproof")
	if err != nil {
		return err
	}
	t0 := time.Now()
	p.sendMu.Lock()
	b := p.eg.begin()
	b = append(b, fSetProof)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(callerPID))
	b = appendNetString(b, op)
	b = appendNetString(b, obj)
	text := ""
	if pf != nil {
		text = pf.String()
	}
	b = appendNetString(b, text)
	b = binary.AppendUvarint(b, uint64(len(creds)))
	advanced := false
	for i, c := range creds {
		switch {
		case c.Inline != nil:
			body, err := p.enc.AppendFormula(nil, c.Inline)
			if err != nil {
				// Earlier credentials of this never-sent frame may already
				// have committed remap/dedup state the server will not
				// see; the connection's numbering is no longer shared, so
				// poison it rather than risk silent misresolution later.
				p.eg.abandon(b)
				p.sendMu.Unlock()
				p.abort(id)
				p.fail()
				return fmt.Errorf("credential %d: %w", i, err)
			}
			b = append(b, wcInline)
			b = appendNetBytes(b, body)
			advanced = true
		case c.Cert != nil:
			fp := c.Cert.Fingerprint()
			if idx, ok := p.certIdx[fp]; ok {
				b = append(b, wcCertRef)
				b = binary.AppendUvarint(b, idx)
			} else {
				b = append(b, wcCert)
				b = appendNetBytes(b, c.Cert.AppendWire(nil))
				p.certIdx[fp] = uint64(len(p.certIdx) + 1)
				advanced = true
			}
		default:
			b = append(b, wcRef)
			b = binary.AppendUvarint(b, uint64(c.Ref))
		}
	}
	err = p.commitFlush(b)
	p.sendMu.Unlock()
	if err != nil && advanced {
		p.abort(id)
		p.fail()
		return fmt.Errorf("%w: %v", ErrTransportClosed, err)
	}
	if err != nil {
		return p.sendErr(id, err)
	}
	_, err = p.await(t0, ch, fOK)
	return err
}

// ---- Serving side -------------------------------------------------------

// xferEntry records one certificate already verified on this connection:
// the label formula it denotes (post speaker-rooting checks) and the
// signer fingerprint, kept for revocation probes on the warm path.
type xferEntry struct {
	f      nal.Formula
	signer string
}

// serverConn is the per-connection ingress state. It needs no lock: every
// field below is confined to the connection's goroutine.
type serverConn struct {
	n    *Node
	k    *Kernel
	c    Conn
	peer *identity
	prin nal.Principal

	dec     *nal.WireDecoder
	certs   []*cert.Certificate  // per-connection dedup table (wcCertRef)
	proxies map[int]*Process     // remote pid → proxy IPD
	xferFPs *lruTable[xferEntry] // re-attestation table (fXferRe), LRU-bounded

	// Flow control. advertWin is the receive window we
	// advertised — it bounds the backlog of unprocessed request frames.
	// respCredits is the send window toward the client (initialized to its
	// advertised window, replenished by its fCredit frames); when it hits
	// zero the connection parks its requests in the backlog instead of
	// sending responses the client has no room for. served counts requests
	// answered since the last credit grant back to the client.
	advertWin   int
	cliWin      int
	respCredits int
	served      int
	backlog     [][]byte
	backlogHead int

	// sessKey is the handshake-derived session key shared with the peer.
	sessKey []byte

	// eg is the outbound combiner: responses and credit grants stage into
	// it and flush when the read burst ends (or at its high-water mark).
	// reTag verifies warm re-attestation tags.
	eg    *egress
	reTag *reTagger

	// subMsg is the reused decode target for calls and batched
	// submissions; its Op/Obj strings persist across warm requests so a
	// repeated target decodes without allocating.
	subMsg Msg

	// mkey selects this connection's metrics counter stripe.
	mkey uint64
}

// serveConn runs the handshake and then the established connection on the
// goroutine Serve started for it, tearing the connection down when either
// ends. The Serve accept loop did wg.Add(1); serveConn pairs it.
func (n *Node) serveConn(c Conn) {
	defer n.wg.Done()
	sc := &serverConn{
		n: n, k: n.k, c: c,
		dec:       nal.NewWireDecoder(),
		proxies:   map[int]*Process{},
		xferFPs:   newLRUTable[xferEntry](n.cfg.ReattestCap),
		advertWin: n.cfg.RecvWindow,
		mkey:      connCounter.Add(1),
	}
	defer sc.teardown()
	if err := sc.handshake(); err != nil {
		if errors.Is(err, ErrTimeout) {
			sc.k.metrics.add(sc.mkey, mNetTimeouts, 1)
		}
		return
	}
	sc.eg = newEgress(c, n.k.metrics, sc.mkey)
	sc.reTag = newReTagger(sc.sessKey)
	drive(readerFor(c, n.k.metrics, sc.mkey), sc.onFrame, sc.idle)
}

// teardown exits every proxy this connection created and unregisters the
// connection. It runs with no transport lock held except Node.mu for the
// map update, released before the kernel registry work.
func (sc *serverConn) teardown() {
	sc.c.Close()
	sc.n.mu.Lock()
	delete(sc.n.conns, sc.c)
	sc.n.mu.Unlock()
	sc.n.nconns.Add(-1)
	sc.k.metrics.netConns.Add(-1)
	for _, p := range sc.proxies {
		p.Exit()
	}
}

// onFrame is the connection's ingress entry point, run on its goroutine.
// Credit frames replenish the response window immediately; every
// other frame joins the FIFO backlog (so request ordering is preserved
// across parking) and drain processes as many as the window allows.
// Returning false tears the connection down.
func (sc *serverConn) onFrame(frame []byte, ar *netArena) bool {
	m := sc.k.metrics
	m.add(sc.mkey, mNetRecvs, 1)
	m.add(sc.mkey, mNetRecvBytes, uint64(len(frame)))
	if len(frame) >= 1 && frame[0] == fCredit {
		r := &netCursor{buf: frame[1:]}
		nc, ok := r.uvarint()
		if !ok || !r.done() {
			return false
		}
		// Clamp at the client's advertised window (overflow-safe for any
		// uint64 count): a hostile over-grant cannot widen the stream.
		if nc >= uint64(sc.cliWin) || sc.respCredits+int(nc) > sc.cliWin {
			sc.respCredits = sc.cliWin
		} else {
			sc.respCredits += int(nc)
		}
		ar.put(frame)
		return sc.drain(ar)
	}
	if len(sc.backlog)-sc.backlogHead >= sc.advertWin {
		// The peer has more unacknowledged frames toward us than the
		// window we advertised: protocol violation.
		return false
	}
	sc.backlog = append(sc.backlog, frame)
	return sc.drain(ar)
}

// drain processes backlogged frames while response credits last.
func (sc *serverConn) drain(ar *netArena) bool {
	for sc.respCredits > 0 && sc.backlogHead < len(sc.backlog) {
		frame := sc.backlog[sc.backlogHead]
		sc.backlog[sc.backlogHead] = nil
		sc.backlogHead++
		if sc.backlogHead == len(sc.backlog) {
			sc.backlog = sc.backlog[:0]
			sc.backlogHead = 0
		}
		if !sc.process(frame, ar) {
			return false
		}
	}
	return true
}

// idle runs when the connection has no further frame to read without
// waiting: it flushes the staged responses, so they never outlive the read
// burst that produced them, and releases oversized egress scratch, so a
// waiting connection pins at most egressParkCap of staging memory.
// Flushing recycles through the frame pool, never the allocator (pinned by
// TestAllocRemoteCallWarm).
//
//nexus:noalloc
func (sc *serverConn) idle() bool {
	err := sc.eg.flush()
	sc.eg.trim()
	return err == nil
}

// process handles one request frame end to end: decode, dispatch, stage
// the response on the egress combiner, recycle, and grant request credits
// back to the client as the window half-empties. Responses flush when the
// read burst ends (drive) or when staging crosses its high-water mark — so
// a pipelined burst answered in one pass leaves as one write. A response
// larger than maxNetFrame is replaced by an EINVAL error frame for its
// request.
func (sc *serverConn) process(frame []byte, ar *netArena) bool {
	m := sc.k.metrics
	if len(frame) < 2 {
		return false
	}
	typ := frame[0]
	r := &netCursor{buf: frame[1:]}
	id, ok := r.uvarint()
	if !ok {
		return false
	}
	b := sc.eg.begin()
	b, fatal := sc.handle(b, typ, id, r)
	if sc.eg.size(b) > maxNetFrame {
		sc.eg.abandon(b)
		b = appendErrFrame(sc.eg.begin(), id, "transport", abiErr(EINVAL, "transport", errOversized.Error()))
	}
	n := sc.eg.commit(b)
	m.add(sc.mkey, mNetSends, 1)
	m.add(sc.mkey, mNetSendBytes, uint64(n))
	sc.respCredits--
	if fatal {
		// The ingress codec tables stopped at a prefix the client no
		// longer agrees with; every later backreference could resolve
		// silently wrong. Tear the connection down — drive flushes staged
		// egress (this error response included) before closing.
		return false
	}
	switch typ {
	case fConnect, fCall, fSubmit, fXferRe:
		// These request payloads cannot escape the exchange (everything
		// retained is copied), so the buffer returns to the arena.
		// fXfer and fSetProof are excluded: decoded certificates alias
		// their frames and are retained in per-connection tables.
		ar.put(frame)
	}
	sc.served++
	if 2*sc.served >= sc.advertWin {
		b := sc.eg.begin()
		b = append(b, fCredit)
		b = binary.AppendUvarint(b, uint64(sc.served))
		cn := sc.eg.commit(b)
		sc.served = 0
		m.add(sc.mkey, mNetSends, 1)
		m.add(sc.mkey, mNetSendBytes, uint64(cn))
	}
	if sc.eg.full() {
		if sc.eg.flush() != nil {
			return false
		}
	}
	return true
}

func (sc *serverConn) handshake() error {
	defer beginHandshake(sc.c)()
	frame, err := sc.c.Recv()
	if err != nil {
		return err
	}
	if len(frame) < 2 || frame[0] != fHello || frame[1] != transportVersion {
		return ErrBadPeer
	}
	r := &netCursor{buf: frame[2:]}
	peer, err := sc.n.verifyIdentity(r)
	if err != nil {
		return err
	}
	cliWin, ok := r.uvarint()
	if !ok || !validWindow(cliWin) {
		return ErrBadPeer
	}
	cliNonce, ok := r.bytes()
	if !ok {
		return ErrBadPeer
	}
	cliEphRaw, ok := r.bytes()
	if !ok || !r.done() {
		return ErrBadPeer
	}
	cliEph, err := ecdh.X25519().NewPublicKey(cliEphRaw)
	if err != nil {
		return ErrBadPeer
	}
	self, err := sc.n.localIdentity()
	if err != nil {
		return err
	}
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	ephPub := eph.PublicKey().Bytes()
	srvWin := sc.advertWin
	// cliNonce and cliEphRaw alias the hello frame, which lives until the
	// handshake returns; the digest and session key consume them before.
	sig := signHello(sc.k.NK, "server", cliNonce, cliEphRaw, ephPub, int(cliWin), srvWin)
	resp := []byte{fHelloOK}
	resp = appendIdentity(resp, self)
	resp = binary.AppendUvarint(resp, uint64(srvWin))
	resp = appendNetBytes(resp, nonce)
	resp = appendNetBytes(resp, ephPub)
	resp = appendNetBytes(resp, sig)
	if err := sc.c.Send(resp); err != nil {
		return err
	}
	ack, err := sc.c.Recv()
	if err != nil {
		return err
	}
	if len(ack) == 0 || ack[0] != fHelloAck {
		return ErrBadPeer
	}
	ra := &netCursor{buf: ack[1:]}
	ackSig, ok := ra.bytes()
	if !ok || !ra.done() {
		return ErrBadPeer
	}
	if err := verifyHello(peer.nkPub, "client", nonce, cliEphRaw, ephPub, ackSig, int(cliWin), srvWin); err != nil {
		return err
	}
	shared, err := eph.ECDH(cliEph)
	if err != nil {
		return ErrBadPeer
	}
	sc.sessKey = deriveSessionKey(shared, cliNonce, nonce)
	sc.peer = peer
	sc.prin = peer.prin()
	sc.cliWin = int(cliWin)
	sc.respCredits = int(cliWin)
	return nil
}

// proxy returns (creating on first use) the proxy IPD standing in for the
// peer's process with the given remote pid. Its principal is the remote
// process's global name, so server-side authorization, labels, and audit
// records attribute cross-node activity to the real remote identity.
func (sc *serverConn) proxy(remotePID int) *Process {
	if p, ok := sc.proxies[remotePID]; ok && !p.Exited() {
		return p
	}
	p := sc.k.createRemoteProxy(nal.SubChain(sc.prin, "ipd", fmt.Sprint(remotePID)))
	sc.proxies[remotePID] = p
	return p
}

// handle processes one request frame, appending the response frame (which
// echoes the request id) to dst — the open frame on the egress combiner,
// so the response body lands directly in the staging buffer. fatal reports
// that per-connection codec state may have desynced from the client's and
// the connection must close after the response is flushed. Error paths
// append to the handler's original dst value, discarding any partial
// response bytes appended before the failure.
func (sc *serverConn) handle(dst []byte, typ byte, id uint64, r *netCursor) (resp []byte, fatal bool) {
	switch typ {
	case fConnect:
		return sc.handleConnect(dst, id, r), false
	case fCall:
		return sc.handleCall(dst, id, r), false
	case fXfer:
		return sc.handleXfer(dst, id, r), false
	case fXferRe:
		return sc.handleXferRe(dst, id, r), false
	case fSubmit:
		return sc.handleSubmit(dst, id, r), false
	case fSetProof:
		return sc.handleSetProof(dst, id, r)
	}
	return appendErrFrame(dst, id, "transport", abiErr(EINVAL, "transport", "unknown frame type")), true
}

func (sc *serverConn) handleConnect(dst []byte, id uint64, r *netCursor) []byte {
	pid, ok1 := r.uvarint()
	service, ok2 := r.str()
	if !ok1 || !ok2 || !r.done() {
		return appendErrFrame(dst, id, "connect", abiErr(EINVAL, "connect", "malformed frame"))
	}
	sc.n.mu.Lock()
	portID, ok := sc.n.exports[service]
	sc.n.mu.Unlock()
	if !ok {
		return appendErrFrame(dst, id, "connect", abiErr(ENOENT, "connect", "no exported service "+service))
	}
	if err := sc.k.GrantChannel(sc.proxy(int(pid)), portID); err != nil {
		return appendErrFrame(dst, id, "connect", err)
	}
	dst = append(dst, fConnOK)
	dst = binary.AppendUvarint(dst, id)
	return binary.AppendUvarint(dst, uint64(portID))
}

func (sc *serverConn) handleCall(dst []byte, id uint64, r *netCursor) []byte {
	pid, ok1 := r.uvarint()
	portID, ok2 := r.uvarint()
	if !ok1 || !ok2 {
		return appendErrFrame(dst, id, "call", abiErr(EINVAL, "call", "malformed frame"))
	}
	m := &sc.subMsg
	if !readMsgFieldsInto(m, r) || !r.done() {
		return appendErrFrame(dst, id, "call", abiErr(EINVAL, "call", "malformed message"))
	}
	// The standard dispatch pipeline: channel check, authorization against
	// the proxy's (remote) principal, interposition, handler.
	out, err := sc.k.Call(sc.proxy(int(pid)), int(portID), m)
	if err != nil {
		return appendErrFrame(dst, id, m.Op, err)
	}
	dst = append(dst, fCallOK)
	dst = binary.AppendUvarint(dst, id)
	return appendNetBytes(dst, out)
}

// handleSubmit executes one batched submission: N operations against one
// remote port, each run through the flags-preloaded dispatch pipeline on
// the caller's proxy, marshaling (when interposition is on) into a pooled
// arena. The batch framing is validated in full before any operation
// executes, so a torn frame cannot half-run.
func (sc *serverConn) handleSubmit(dst []byte, id uint64, r *netCursor) []byte {
	pid, ok1 := r.uvarint()
	portID, ok2 := r.uvarint()
	if !ok1 || !ok2 {
		return appendErrFrame(dst, id, "submit", abiErr(EINVAL, "submit", "malformed frame"))
	}
	batch := r.buf[r.off:]
	if len(batch) < 4 {
		return appendErrFrame(dst, id, "submit", abiErr(EINVAL, "submit", "truncated batch"))
	}
	count := binary.LittleEndian.Uint32(batch[:4])
	body := batch[4:]
	if uint64(count)*8 > uint64(len(body)) {
		return appendErrFrame(dst, id, "submit", abiErr(EINVAL, "submit", "batch count exceeds buffer"))
	}
	// Validate the framing end to end before executing anything.
	rest := body
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return appendErrFrame(dst, id, "submit", abiErr(EINVAL, "submit", "truncated batch"))
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return appendErrFrame(dst, id, "submit", abiErr(EINVAL, "submit", "truncated batch"))
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return appendErrFrame(dst, id, "submit", abiErr(EINVAL, "submit", "trailing bytes after batch"))
	}
	pt, ok := sc.k.ports.find(int(portID))
	if !ok {
		return appendErrFrame(dst, id, "submit", abiErr(ENOENT, "submit", "no such port"))
	}
	proxy := sc.proxy(int(pid))
	k := sc.k
	flags := k.flags.Load()
	k.metrics.netBatch.observeCount(uint64(count))

	// Ingress admission mirrors the egress leg: the hoisted head runs once,
	// each entry then pays authorization plus the OnCall sweep over its
	// received bytes — already the message's canonical wire form, so the
	// chain inspects them in place with no re-marshal.
	ba, baErr := k.batchAdmit(flags, proxy, pt)

	resp := dst
	resp = append(resp, fSubmitOK)
	resp = binary.AppendUvarint(resp, id)
	resp = binary.AppendUvarint(resp, uint64(count))
	m := &sc.subMsg
	for i := uint32(0); i < count; i++ {
		n := binary.LittleEndian.Uint32(body[:4])
		wire := body[4 : 4+n]
		body = body[4+n:]
		var out []byte
		var err error
		if baErr != nil {
			err = baErr
		} else if !unmarshalMsgInto(m, wire) {
			// Structurally framed but not a decodable message.
			err = abiErr(EINVAL, "submit", "malformed message")
		} else if err = ba.admitOp(m, wire); err == nil {
			out, err = pt.h(ba.caller, m)
			out = ba.unwind(m, out)
		}
		switch e := err.(type) {
		case nil:
			resp = append(resp, wsOK)
			resp = appendNetBytes(resp, out)
		case *Error:
			resp = append(resp, wsAbiErr)
			resp = binary.AppendUvarint(resp, uint64(e.Errno))
			resp = appendNetString(resp, e.Op)
			resp = appendNetString(resp, e.Detail)
		default:
			resp = append(resp, wsHdlrErr)
			resp = appendNetString(resp, err.Error())
		}
	}
	return resp
}

// handleXfer is cold credential ingress: verify through the kernel's
// pre-verification cache, enforce the cross-node speaker rooting rule,
// intern the label into the caller's proxy labelstore, and record the
// certificate in the connection's re-attestation table so later crossings
// can take the fXferRe path.
func (sc *serverConn) handleXfer(dst []byte, id uint64, r *netCursor) []byte {
	pid, ok := r.uvarint()
	if !ok {
		return appendErrFrame(dst, id, "xferlabel", abiErr(EINVAL, "xferlabel", "malformed frame"))
	}
	certWire, ok := r.bytes()
	if !ok || !r.done() {
		return appendErrFrame(dst, id, "xferlabel", abiErr(EINVAL, "xferlabel", "malformed frame"))
	}
	c, _, err := cert.DecodeCertWire(certWire)
	if err != nil {
		sc.k.metrics.add(sc.mkey, mWireDecodeErrs, 1)
		return appendErrFrame(dst, id, "xferlabel", abiErr(EINVAL, "xferlabel", err.Error()))
	}
	sc.k.metrics.add(sc.mkey, mWireDecodes, 1)
	f, _, err := sc.k.certs.Label(c)
	if err != nil {
		return appendErrFrame(dst, id, "xferlabel", abiErr(EACCES, "xferlabel", err.Error()))
	}
	// The certificate must be signed by the sending node's NK — a label
	// signed by any other key, however valid, did not originate on the
	// peer and cannot ride its connection.
	says, ok2 := f.(nal.Says)
	if !ok2 {
		return appendErrFrame(dst, id, "xferlabel", abiErr(EINVAL, "xferlabel", "label not a says"))
	}
	signer, ok3 := says.P.(nal.Key)
	if !ok3 || string(signer) != sc.peer.nkFP {
		return appendErrFrame(dst, id, "xferlabel",
			fmt.Errorf("%w: label signed by %v, connection authenticated %s",
				ErrSpoofedSpeaker, says.P, sc.peer.nkFP))
	}
	// Cross-node speaker rooting: the attributed speaker must be the
	// sending kernel's principal or one of its subprincipals. Without this
	// check a node could sign (with its own genuine NK) a label claiming
	// another node's process said something, and the imported formula
	// would attribute it there.
	st, err := c.Statement()
	if err != nil {
		return appendErrFrame(dst, id, "xferlabel", abiErr(EINVAL, "xferlabel", err.Error()))
	}
	if st.Speaker != "" {
		sp, err := nal.ParsePrincipal(st.Speaker)
		if err != nil {
			return appendErrFrame(dst, id, "xferlabel", abiErr(EINVAL, "xferlabel", "bad speaker"))
		}
		if !nal.IsAncestor(sc.prin, sp) {
			return appendErrFrame(dst, id, "xferlabel",
				fmt.Errorf("%w: speaker %s not under %s", ErrSpoofedSpeaker, st.Speaker, sc.prin))
		}
	}
	// Every trust check passed: remember the certificate for warm
	// re-attested crossings on this connection (LRU-bounded; an evicted
	// certificate simply re-crosses cold).
	sc.xferFPs.put(c.Fingerprint(), xferEntry{f: f, signer: string(signer)})
	proxy := sc.proxy(int(pid))
	l := proxy.Labels.insertSystem(f)
	dst = append(dst, fXferOK)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(proxy.PID))
	return binary.AppendUvarint(dst, uint64(l.Handle))
}

// handleXferRe is warm credential ingress: the certificate named by
// fingerprint already passed signature verification and both trust rules
// on this connection, so the crossing authenticates by HMAC under the
// session key — the tag proves the request originated on the peer that
// completed the handshake, which is exactly what the cold path's signature
// check established. Revocation is still consulted: a certificate (or
// signer) revoked since the cold crossing fails here.
func (sc *serverConn) handleXferRe(dst []byte, id uint64, r *netCursor) []byte {
	pid, ok1 := r.uvarint()
	fp, ok2 := r.str()
	tag, ok3 := r.bytes()
	if !ok1 || !ok2 || !ok3 || !r.done() {
		return appendErrFrame(dst, id, "xferlabel", abiErr(EINVAL, "xferlabel", "malformed frame"))
	}
	e, ok := sc.xferFPs.get(fp)
	if !ok {
		return appendErrFrame(dst, id, "xferlabel", abiErr(EACCES, "xferlabel", "certificate not attested on this connection"))
	}
	if !hmac.Equal(tag, sc.reTag.tag(int(pid), fp)) {
		return appendErrFrame(dst, id, "xferlabel", abiErr(EACCES, "xferlabel", "re-attestation tag invalid"))
	}
	if sc.k.certs.Revoked(fp, e.signer) {
		sc.xferFPs.remove(fp)
		return appendErrFrame(dst, id, "xferlabel", abiErr(EACCES, "xferlabel", cert.ErrRevoked.Error()))
	}
	proxy := sc.proxy(int(pid))
	l := proxy.Labels.insertSystem(e.f)
	dst = append(dst, fXferOK)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(proxy.PID))
	return binary.AppendUvarint(dst, uint64(l.Handle))
}

// handleSetProof decodes the credential vector *before* anything that can
// fail for non-codec reasons (the proof parse): inline-credential and
// certificate decode commit per-connection state the client has already
// committed on its side, so by the time a benign failure can occur both
// tables agree. Codec-level failures report fatal and close the
// connection — a partially consumed definition stream must not survive.
func (sc *serverConn) handleSetProof(dst []byte, id uint64, r *netCursor) (resp []byte, fatal bool) {
	pid, ok1 := r.uvarint()
	op, ok2 := r.str()
	obj, ok3 := r.str()
	text, ok4 := r.str()
	ncreds, ok5 := r.uvarint()
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || ncreds > uint64(r.remaining()) {
		return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "malformed frame")), true
	}
	proxy := sc.proxy(int(pid))
	creds := make([]Credential, 0, ncreds)
	for i := uint64(0); i < ncreds; i++ {
		kind, ok := r.byte()
		if !ok {
			return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "truncated credentials")), true
		}
		switch kind {
		case wcInline:
			body, ok := r.bytes()
			if !ok {
				return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "truncated inline credential")), true
			}
			fid, _, err := sc.dec.DecodeFormula(body)
			if err != nil {
				sc.k.metrics.add(sc.mkey, mWireDecodeErrs, 1)
				return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", err.Error())), true
			}
			sc.k.metrics.add(sc.mkey, mWireDecodes, 1)
			creds = append(creds, Credential{Inline: nal.FormulaOfID(fid)})
		case wcRef:
			h, ok := r.uvarint()
			if !ok {
				return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "truncated ref credential")), true
			}
			creds = append(creds, Credential{Ref: &LabelRef{PID: proxy.PID, Handle: int(h)}})
		case wcCert:
			cw, ok := r.bytes()
			if !ok {
				return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "truncated certificate")), true
			}
			c, _, err := cert.DecodeCertWire(cw)
			if err != nil {
				sc.k.metrics.add(sc.mkey, mWireDecodeErrs, 1)
				return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", err.Error())), true
			}
			sc.k.metrics.add(sc.mkey, mWireDecodes, 1)
			sc.certs = append(sc.certs, c)
			creds = append(creds, Credential{Cert: c})
		case wcCertRef:
			idx, ok := r.uvarint()
			if !ok || idx == 0 || idx > uint64(len(sc.certs)) {
				return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "dangling certificate reference")), true
			}
			creds = append(creds, Credential{Cert: sc.certs[idx-1]})
		default:
			return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "unknown credential kind")), true
		}
	}
	if !r.done() {
		return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "trailing bytes")), true
	}
	var pf *proof.Proof
	if text != "" {
		var err error
		if pf, err = proof.Parse(text); err != nil {
			return appendErrFrame(dst, id, "setproof", abiErr(EINVAL, "setproof", "bad proof: "+err.Error())), false
		}
	}
	sc.k.SetProof(proxy, op, obj, pf, creds)
	dst = append(dst, fOK)
	return binary.AppendUvarint(dst, id), false
}
