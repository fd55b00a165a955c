package kernel

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
)

// A count a peer sends is a claim about bytes still to come, not a size to
// allocate: ingress sizes its buffers by the bytes that arrived.

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// prefixed returns body behind its 4-byte length prefix.
func prefixed(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// streamPairs are the connected pairs the splitter tests read through:
// net.Pipe, whose ends the splitter reads through Read, and a TCP socket
// pair, whose accepted end it reads directly where the raw reader builds.
var streamPairs = []struct {
	name string
	pair func(*testing.T) (Conn, Conn)
}{
	{"pipe", func(*testing.T) (Conn, Conn) { return net.Pipe() }},
	{"tcp", tcpPair},
}

// tcpPair returns a connected TCP socket pair: the accepted end, as the
// transport wraps it, and the dialed one.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP loopback available: %v", err)
	}
	defer l.Close()
	b, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return &tcpConn{c: a}, b
}

// TestSplitterClaimedLength: a peer that sends a maximal length prefix,
// 10 body bytes and then closes makes the splitter fail having allocated a
// small buffer, not the 4 MiB it claimed. The handshake reads the hello
// through the splitter before the peer is authenticated.
func TestSplitterClaimedLength(t *testing.T) {
	m := new(kernelMetrics)
	for _, sp := range streamPairs {
		t.Run(sp.name, func(t *testing.T) {
			// The least of three runs, so unrelated background allocation
			// cannot fail the bound.
			least := ^uint64(0)
			for i := 0; i < 3; i++ {
				a, b := sp.pair(t)
				in := newSplitter(a, m, 0)
				least = min(least, allocated(func() {
					go func() {
						defer b.Close()
						b.Write(binary.LittleEndian.AppendUint32(nil, maxNetFrame))
						b.Write(make([]byte, 10))
					}()
					if _, err := in.next(true); err == nil {
						t.Error("the splitter returned a frame whose body never arrived")
					}
				}))
				a.Close()
			}
			t.Logf("least allocated: %d bytes", least)
			if least >= 64<<10 {
				t.Fatalf("the splitter allocated %d bytes for a 10-byte body, want < 64 KiB", least)
			}
		})
	}
}

// TestSplitterFrameSizes: frames of every size up to maxNetFrame
// round-trip through the splitter while its held buffer grows.
func TestSplitterFrameSizes(t *testing.T) {
	m := new(kernelMetrics)
	for _, sp := range streamPairs {
		t.Run(sp.name, func(t *testing.T) {
			a, b := sp.pair(t)
			defer a.Close()
			defer b.Close()
			in := newSplitter(a, m, 0)
			if _, ok := a.(*tcpConn); ok && runtime.GOOS == "linux" && in.raw == nil {
				t.Fatal("a TCP end on Linux is not read directly")
			}
			for _, n := range []int{1, rxSize, rxSize + 1, 3*rxSize + 5, maxNetFrame} {
				frame := make([]byte, n)
				for i := range frame {
					frame[i] = byte(i*7 + i>>12)
				}
				sent := make(chan error, 1)
				go func() {
					_, err := b.Write(prefixed(frame))
					sent <- err
				}()
				got, err := in.next(true)
				if err != nil {
					t.Fatalf("%d-byte frame: %v", n, err)
				}
				if err := <-sent; err != nil {
					t.Fatalf("%d-byte frame: Write: %v", n, err)
				}
				if !bytes.Equal(got, frame) {
					t.Fatalf("%d-byte frame did not round-trip", n)
				}
			}
		})
	}
}

// TestSetProofClaimedCreds: an fSetProof frame claiming 2^21 credentials,
// whose first credential kind is unknown, draws EINVAL echoing its request
// id and closes the connection, and the whole exchange allocates less than
// 4 MiB: nothing near the 64 MiB that 2^21 credentials would take, and
// less than twice the 2 MiB frame for carrying it. The frame goes out in
// one Write on a TCP connection, whose socket holds the bytes until the
// serving end reads them, so what the exchange allocates is the serving
// end's ingress and its answer. (Over loopback the pipe keeps its own copy
// of every write, which for this frame is half the bound by itself.)
func TestSetProofClaimedCreds(t *testing.T) {
	const claimed = 1 << 21
	frame := []byte{fSetProof}
	frame = binary.AppendUvarint(frame, 9) // request id
	frame = binary.AppendUvarint(frame, 7) // caller pid
	frame = appendNetString(frame, "read")
	frame = appendNetString(frame, "obj")
	frame = appendNetString(frame, "") // no proof text
	frame = binary.AppendUvarint(frame, claimed)
	frame = append(frame, 0xff) // an unknown credential kind
	frame = prefixed(append(frame, make([]byte, claimed-1)...))

	var tr TCPTransport
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP loopback available: %v", err)
	}
	nStore, nFront := NewNode(bootK(t)), NewNode(bootK(t))
	nStore.Serve(l)
	t.Cleanup(func() {
		nFront.Close()
		nStore.Close()
	})
	least := ^uint64(0)
	for i := 0; i < 3; i++ { // the least of three runs, as in TestSplitterClaimedLength
		c := dialRaw(t, nFront, tr, l.Addr())
		var resp []byte
		least = min(least, allocated(func() {
			if _, err = c.Write(frame); err == nil {
				resp, err = c.recv()
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		r := &netCursor{buf: resp[1:]}
		id, ok := r.uvarint()
		if resp[0] != fErr || !ok || id != 9 {
			t.Fatalf("response % x, want fErr echoing request id 9", resp[:min(len(resp), 16)])
		}
		if e, ok := r.errBody(); !ok || ErrnoOf(e) != EINVAL {
			t.Fatalf("response error %v, want EINVAL", e)
		}
		if _, err := c.recv(); err == nil {
			t.Fatal("connection still open after a codec-level setproof failure")
		}
		c.Close()
	}
	t.Logf("least allocated: %d bytes", least)
	if least >= 4<<20 {
		t.Fatalf("setproof ingress allocated %d bytes, want < 4 MiB", least)
	}
}
