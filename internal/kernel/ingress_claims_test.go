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

// TestTCPRecvClaimedLength: a peer that sends a maximal length prefix, 10
// body bytes and then closes makes Recv fail having allocated a small
// buffer, not the 4 MiB it claimed. The handshake reads the hello through
// Recv before the peer is authenticated.
func TestTCPRecvClaimedLength(t *testing.T) {
	// The least of three runs, so unrelated background allocation cannot
	// fail the bound.
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		least = min(least, allocated(func() {
			a, b := net.Pipe()
			defer a.Close()
			go func() {
				defer b.Close()
				b.Write(binary.LittleEndian.AppendUint32(nil, maxNetFrame))
				b.Write(make([]byte, 10))
			}()
			if _, err := (&tcpConn{c: a}).Recv(); err == nil {
				t.Error("Recv returned a frame whose body never arrived")
			}
		}))
	}
	t.Logf("least allocated: %d bytes", least)
	if least >= 64<<10 {
		t.Fatalf("Recv allocated %d bytes for a 10-byte body, want < 64 KiB", least)
	}
}

// TestTCPRecvFrameSizes: frames of every size up to maxNetFrame still
// round-trip through Send and Recv while Recv's buffer grows.
func TestTCPRecvFrameSizes(t *testing.T) {
	for _, n := range []int{1, recvChunk, recvChunk + 1, 3*recvChunk + 5, maxNetFrame} {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(i*7 + i>>12)
		}
		a, b := net.Pipe()
		sent := make(chan error, 1)
		go func() { sent <- (&tcpConn{c: b}).Send(frame) }()
		got, err := (&tcpConn{c: a}).Recv()
		if err != nil {
			t.Fatalf("%d-byte frame: Recv: %v", n, err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("%d-byte frame: Send: %v", n, err)
		}
		if !bytes.Equal(got, frame) {
			t.Fatalf("%d-byte frame did not round-trip", n)
		}
		a.Close()
		b.Close()
	}
}

// TestSetProofClaimedCreds: an fSetProof frame claiming 2^21 credentials,
// whose first credential kind is unknown, draws EINVAL echoing its request
// id and closes the connection, having allocated nothing near the 64 MiB
// that 2^21 credentials would take.
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
	frame = append(frame, make([]byte, claimed-1)...)

	lt := NewLoopbackTransport()
	_, _, nFront, _ := rawPair(t, lt, TransportConfig{}, TransportConfig{})
	least := ^uint64(0)
	for i := 0; i < 3; i++ { // the least of three runs, as in TestTCPRecvClaimedLength
		c, err := lt.Dial("store")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nFront.handshakeClient(c); err != nil {
			t.Fatal(err)
		}
		var resp []byte
		least = min(least, allocated(func() {
			if err = c.Send(frame); err == nil {
				resp, err = c.Recv()
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
		if _, err := c.Recv(); err == nil {
			t.Fatal("connection still open after a codec-level setproof failure")
		}
		c.Close()
	}
	t.Logf("least allocated: %d bytes", least)
	if least >= 4<<20 {
		t.Fatalf("setproof ingress allocated %d bytes, want < 4 MiB", least)
	}
}
