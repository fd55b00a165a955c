package kernel

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/tpm"
)

// bootKernelRaw boots a kernel outside a testing.T context (for the shared
// fuzz world); it returns nil on platform failure.
func bootKernelRaw() *Kernel {
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		return nil
	}
	k, err := Boot(tp, disk.New(), Options{})
	if err != nil {
		return nil
	}
	return k
}

// FuzzMsgWire fuzzes the IPC wire format the dispatch pipeline materializes
// at the protection boundary, mirroring the NAL parser fuzzers: decoding
// arbitrary bytes must never panic, and decode ∘ encode must be the
// identity — a monitor that re-encodes the message it inspected must produce
// the bytes the kernel marshaled.
func FuzzMsgWire(f *testing.F) {
	seed := [][]byte{
		{},
		marshalMsg(&Msg{}),
		marshalMsg(&Msg{Op: "read", Obj: "file:/x"}),
		marshalMsg(&Msg{Op: "write", Obj: "obj", Args: [][]byte{[]byte("a"), {}, []byte("bc")}}),
		marshalMsg(&Msg{Op: "authority-query", Obj: "ipc:7", Args: [][]byte{[]byte("P says ok")}}),
		{0xff, 0xff, 0xff, 0xff, 0x00},
		{0x01, 0x00, 0x00, 0x00},
		// One seed per rejection in unmarshalMsgInto that the seeds above
		// never reach: a torn obj length, an obj past the end, a torn
		// argument length, an argument past the end.
		{0x00, 0x00, 0x00, 0x00, 0x01},
		{0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 'x'},
		append(marshalMsg(&Msg{Op: "read", Obj: "obj"}), 0x01, 0x00),
		append(marshalMsg(&Msg{Op: "read", Obj: "obj"}), 0x03, 0x00, 0x00, 0x00, 'a', 'b'),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		m, err := unmarshalMsg(wire) // must not panic, whatever the input
		if err != nil {
			if ErrnoOf(err) != EINVAL {
				t.Fatalf("malformed wire %x: errno %v (%v), want EINVAL", wire, ErrnoOf(err), err)
			}
			return
		}
		// Accepted wire must round-trip exactly: unmarshalMsg accepts only
		// the canonical length-prefixed layout, so re-encoding the decoded
		// message reproduces the input byte-for-byte.
		again := marshalMsg(m)
		if !bytes.Equal(again, wire) {
			t.Fatalf("encode(decode(wire)) != wire\n in:  %x\n out: %x", wire, again)
		}
		m2, err := unmarshalMsg(again)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Op != m.Op || m2.Obj != m.Obj || len(m2.Args) != len(m.Args) {
			t.Fatalf("decode not stable: %+v vs %+v", m, m2)
		}
		for i := range m.Args {
			if !bytes.Equal(m.Args[i], m2.Args[i]) {
				t.Fatalf("arg %d not stable", i)
			}
		}
		// Reuse: the submission ingress decodes every entry into one
		// scratch Msg, its operation through the connection's op table, so
		// decoding over a Msg that already holds another message, against a
		// table that holds other operations, must give what the fresh
		// decode gave.
		sm := Msg{Op: "stale-op", Obj: "stale-obj", Args: [][]byte{[]byte("stale"), {}, []byte("args")}}
		ops := opTable{ops: [4]string{"stale-op", "read", "write", ""}, next: 1}
		if !unmarshalMsgInto(&sm, wire, &ops) {
			t.Fatalf("decode into a used Msg rejected accepted wire %x", wire)
		}
		if sm.Op != m.Op || sm.Obj != m.Obj || len(sm.Args) != len(m.Args) {
			t.Fatalf("decode into a used Msg diverges: %+v vs %+v", sm, *m)
		}
		for i := range m.Args {
			if !bytes.Equal(sm.Args[i], m.Args[i]) {
				t.Fatalf("decode into a used Msg diverges on arg %d", i)
			}
		}
	})
}

// remoteFuzz is the shared hostile-client world for FuzzRemoteSubmitFrame:
// two booted kernels, a served loopback node, and one raw connection that
// completed the attestation handshake but speaks arbitrary bytes after it.
var remoteFuzz struct {
	once  sync.Once
	mu    sync.Mutex
	lt    *LoopbackTransport
	front *Node
	c     *rawConn
}

// remoteFuzzConn returns the live hostile connection, redialing (and
// re-handshaking) when a previous input got the connection torn down.
func remoteFuzzConn(t *testing.T) *rawConn {
	remoteFuzz.once.Do(func() {
		front, store := bootKernelRaw(), bootKernelRaw()
		if front == nil || store == nil {
			return
		}
		store.SetAuthorization(false)
		srv, err := store.NewSession([]byte("fuzz-srv"))
		if err != nil {
			return
		}
		pc, err := srv.Listen(func(Caller, *Msg) ([]byte, error) { return nil, nil })
		if err != nil {
			return
		}
		port, err := srv.PortOf(pc)
		if err != nil {
			return
		}
		lt := NewLoopbackTransport()
		nStore := NewNode(store)
		l, err := lt.Listen("store")
		if err != nil {
			return
		}
		nStore.Serve(l)
		if err := nStore.Export("echo", port); err != nil {
			return
		}
		remoteFuzz.lt = lt
		remoteFuzz.front = NewNode(front)
	})
	if remoteFuzz.front == nil {
		t.Skip("remote fuzz world unavailable")
	}
	if remoteFuzz.c == nil {
		c, err := remoteFuzz.lt.Dial("store")
		if err != nil {
			t.Skipf("redial: %v", err)
		}
		// The handshake must be genuine — the server only talks to an
		// attested peer — but everything after it is raw frame I/O.
		p, in, err := remoteFuzz.front.handshakeClient(c)
		if err != nil {
			t.Fatalf("handshake: %v", err)
		}
		remoteFuzz.c = &rawConn{Conn: c, p: p, in: in}
	}
	return remoteFuzz.c
}

// FuzzRemoteSubmitFrame drives the serving side of remote IPC — fSubmit,
// which carries single calls and batches alike — with hostile frames on an
// attested connection: arbitrary request
// id bytes, caller/port fields, and batch payloads (including overflowing
// count prefixes). The server must never panic; it answers every parseable
// request with either a completion vector or an fErr frame that echoes the
// request id and carries a valid non-EOK errno, and tears the connection
// down (cleanly) only when the request id is undecodable.
func FuzzRemoteSubmitFrame(f *testing.F) {
	// valid is a two-entry batch as SubmitRemote frames it: a u32 count,
	// then each entry's u32 length and message.
	valid := binary.LittleEndian.AppendUint32(nil, 2)
	for _, m := range []*Msg{{Op: "read", Obj: "obj"}, {Op: "write", Obj: "obj", Args: [][]byte{[]byte("x")}}} {
		valid = binary.LittleEndian.AppendUint32(valid, uint32(msgWireSize(m)))
		valid = appendMsgWire(valid, m)
	}
	pp := binary.AppendUvarint(binary.AppendUvarint(nil, 7), 1)
	f.Add([]byte{1}, append(append([]byte{}, pp...), valid...))
	f.Add([]byte{1}, append(append([]byte{}, pp...), 0xff, 0xff, 0xff, 0xff)) // count overflow
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		append(append([]byte{}, pp...), valid...)) // max uvarint id
	f.Add([]byte{0x80, 0x80}, []byte{})                                // torn id
	f.Add([]byte{2}, []byte{7, 1, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0}) // short msg
	// One seed per framing check in handleSubmit that the seeds above never fail.
	f.Add([]byte{1}, []byte{0x80})                          // torn caller pid
	f.Add([]byte{1}, append(append([]byte{}, pp...), 1, 0)) // torn batch count
	f.Add([]byte{1}, append(append([]byte{}, pp...), 2, 0, 0, 0, 12, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)) // count past the last entry
	f.Add([]byte{1}, append(append([]byte{}, pp...), 1, 0, 0, 0, 0xff, 0xff, 0, 0,
		0, 0, 0, 0)) // entry length past the frame
	f.Add([]byte{1}, append(append(append([]byte{}, pp...), valid...), 0)) // trailing byte
	f.Add([]byte{1}, append(binary.AppendUvarint(binary.AppendUvarint(nil, 7), 1<<20),
		valid...)) // no such port
	// The frame Peer.call sends for a single call: a one-entry submission.
	call := appendCallFrame(nil, 1, 7, 1, &Msg{Op: "read", Obj: "obj", Args: [][]byte{[]byte("x")}})
	f.Add(call[1:2], call[2:])
	f.Fuzz(func(t *testing.T, idBytes, payload []byte) {
		if len(idBytes) > 10 || len(payload) > 4096 {
			return
		}
		remoteFuzz.mu.Lock()
		defer remoteFuzz.mu.Unlock()
		c := remoteFuzzConn(t)
		frame := append([]byte{fSubmit}, idBytes...)
		frame = append(frame, payload...)
		// The server parses the request id from the full remainder, so the
		// id bytes may run into the payload; mirror that here.
		wantID, n := binary.Uvarint(frame[1:])
		idOK := n > 0
		if err := c.send(frame); err != nil {
			remoteFuzz.c = nil // conn died earlier; next input redials
			return
		}
		resp, err := c.recv()
		if err != nil {
			// The server closed the connection: legal only when the request
			// id was undecodable.
			if idOK {
				t.Fatalf("server dropped a frame with a decodable request id % x", idBytes)
			}
			remoteFuzz.c = nil
			return
		}
		if len(resp) < 2 {
			t.Fatalf("torn response % x", resp)
		}
		r := &netCursor{buf: resp[1:]}
		gotID, ok := r.uvarint()
		if !ok || gotID != wantID {
			t.Fatalf("response id %d (ok=%v), want %d", gotID, ok, wantID)
		}
		switch resp[0] {
		case fErr:
			en, ok1 := r.uvarint()
			_, ok2 := r.str()
			_, ok3 := r.str()
			if !ok1 || !ok2 || !ok3 || !r.done() {
				t.Fatalf("malformed fErr frame % x", resp)
			}
			if Errno(en) == EOK || Errno(en) > EAGAIN {
				t.Fatalf("errno class lost on hostile frame: %d", en)
			}
		case fSubmitOK:
			nres, ok := r.uvarint()
			if !ok {
				t.Fatalf("malformed completion vector % x", resp)
			}
			for i := uint64(0); i < nres; i++ {
				st, ok := r.byte()
				if !ok {
					t.Fatalf("truncated completion vector at %d", i)
				}
				switch st {
				case wsOK:
					if _, ok := r.bytes(); !ok {
						t.Fatalf("truncated wsOK completion at %d", i)
					}
				case wsErr:
					// The fuzz world's handler never fails, so every
					// per-op error is a kernel ABI error.
					en, ok1 := r.uvarint()
					_, ok2 := r.str()
					_, ok3 := r.str()
					if !ok1 || !ok2 || !ok3 {
						t.Fatalf("truncated wsErr completion at %d", i)
					}
					if Errno(en) == EOK || Errno(en) > EAGAIN {
						t.Fatalf("per-op errno class lost: %d", en)
					}
				default:
					t.Fatalf("unknown completion status %d", st)
				}
			}
			if !r.done() {
				t.Fatalf("trailing bytes after completion vector")
			}
		default:
			t.Fatalf("unexpected response type %d to fSubmit", resp[0])
		}
	})
}

// fuzzWorld lazily boots one shared kernel (boots are RSA-keygen heavy)
// with a stable echo port; each fuzz iteration gets its own subject
// session, so iterations only share immutable targets.
var fuzzOnce sync.Once
var fuzzK *Kernel
var fuzzPortID int

func fuzzWorld(t *testing.T) (*Kernel, int) {
	t.Helper()
	fuzzOnce.Do(func() {
		k := bootKernelRaw()
		if k == nil {
			return
		}
		k.SetAuthorization(false)
		srv, err := k.NewSession([]byte("fuzz-srv"))
		if err != nil {
			return
		}
		pc, err := srv.Listen(func(Caller, *Msg) ([]byte, error) { return nil, nil })
		if err != nil {
			return
		}
		id, err := srv.PortOf(pc)
		if err != nil {
			return
		}
		fuzzK, fuzzPortID = k, id
	})
	if fuzzK == nil {
		t.Skip("fuzz world unavailable")
	}
	return fuzzK, fuzzPortID
}

// FuzzHandleTable drives a session's capability table with a byte-coded op
// stream split across two concurrent workers plus a racing Exit, then
// asserts the table invariants: dup'd handles resolve to their referent,
// closed and foreign handles always miss, and after Exit the table is empty
// and dead — no handle outlives its process.
func FuzzHandleTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, false)
	f.Add([]byte{0, 0, 0, 3, 3, 3, 1, 2, 2, 2}, true)
	f.Add([]byte{5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0}, true)
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2}, false)
	f.Fuzz(func(t *testing.T, ops []byte, exitMid bool) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		k, portID := fuzzWorld(t)
		s, err := k.NewSession([]byte("subject"))
		if err != nil {
			t.Fatal(err)
		}

		run := func(stream []byte) {
			var caps []Cap
			for _, op := range stream {
				switch op % 6 {
				case 0: // open a channel
					if c, err := s.Open(portID); err == nil {
						caps = append(caps, c)
					}
				case 1: // open an object
					if c, err := s.OpenObject("obj"); err == nil {
						caps = append(caps, c)
					}
				case 2: // dup the newest
					if len(caps) > 0 {
						if c, err := s.Dup(caps[len(caps)-1]); err == nil {
							// Dup must resolve to the same referent.
							p1, e1 := s.PortOf(caps[len(caps)-1])
							p2, e2 := s.PortOf(c)
							if (e1 == nil) != (e2 == nil) || p1 != p2 {
								t.Errorf("dup diverges: %d/%v vs %d/%v", p1, e1, p2, e2)
							}
							caps = append(caps, c)
						}
					}
				case 3: // close the oldest
					if len(caps) > 0 {
						s.Close(caps[0])
						caps = caps[1:]
					}
				case 4: // double close / forged handle must miss, not corrupt
					if len(caps) > 0 {
						s.Close(caps[0])
						s.Close(caps[0])
						caps = caps[1:]
					}
					if _, err := s.PortOf(Cap(uint64(op)<<32 | 0x7fffffff)); err == nil {
						t.Error("forged handle resolved")
					}
				case 5: // call through the newest
					if len(caps) > 0 {
						s.Call(caps[len(caps)-1], &Msg{Op: "x", Obj: "y"})
					}
				}
			}
		}

		half := len(ops) / 2
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); run(ops[:half]) }()
		go func() { defer wg.Done(); run(ops[half:]) }()
		if exitMid {
			wg.Add(1)
			go func() { defer wg.Done(); s.Exit() }()
		}
		wg.Wait()
		s.Exit()

		// Exit teardown invariant: the table is empty and permanently dead.
		if n := s.Handles(); n != 0 {
			t.Fatalf("%d handles outlive their process", n)
		}
		if _, err := s.Open(portID); err == nil {
			t.Fatal("alloc after exit succeeded")
		}
		if _, err := s.OpenObject("late"); err == nil {
			t.Fatal("object alloc after exit succeeded")
		}
		// No channel grants outlive the process either.
		for pid := range k.Channels() {
			if pid == s.PID() {
				t.Fatal("dead pid retains channel grants")
			}
		}
		assertRegistryInvariants(t, k)
	})
}
