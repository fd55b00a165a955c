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
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		m, err := unmarshalMsg(wire) // must not panic, whatever the input
		if err != nil {
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
		// Batch extension: any accepted message, framed as a batch, must
		// round-trip through the batch wire format too.
		batch := MarshalBatch([]*Msg{m, m2})
		back, err := UnmarshalBatch(batch)
		if err != nil {
			t.Fatalf("batch decode of accepted messages: %v", err)
		}
		if len(back) != 2 || !bytes.Equal(MarshalBatch(back), batch) {
			t.Fatalf("batch round-trip not stable")
		}
	})
}

// FuzzBatchWire fuzzes the batch framing of the submission queue: decoding
// arbitrary bytes must never panic, and accepted input must round-trip
// byte-for-byte — the same contract FuzzMsgWire pins for single messages.
func FuzzBatchWire(f *testing.F) {
	seed := [][]byte{
		{},
		MarshalBatch(nil),
		MarshalBatch([]*Msg{{}}),
		MarshalBatch([]*Msg{{Op: "read", Obj: "file:/x"}}),
		MarshalBatch([]*Msg{
			{Op: "write", Obj: "obj", Args: [][]byte{[]byte("a"), {}, []byte("bc")}},
			{Op: "GET", Obj: "web:static", Args: [][]byte{[]byte("/index.html")}},
		}),
		{0xff, 0xff, 0xff, 0xff},
		{0x01, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00},
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		msgs, err := UnmarshalBatch(wire) // must not panic, whatever the input
		if err != nil {
			return
		}
		again := MarshalBatch(msgs)
		if !bytes.Equal(again, wire) {
			t.Fatalf("encode(decode(batch)) != batch\n in:  %x\n out: %x", wire, again)
		}
		// The streaming decoder the remote-batch ingress uses must agree
		// with the canonical decoder on every accepted frame, including
		// across reuse of one scratch Msg for the whole batch.
		var sm Msg
		rest := wire[4:]
		for i, m := range msgs {
			n := binary.LittleEndian.Uint32(rest[:4])
			rest = rest[4:]
			if !unmarshalMsgInto(&sm, rest[:n]) {
				t.Fatalf("streaming decode rejected accepted message %d", i)
			}
			if sm.Op != m.Op || sm.Obj != m.Obj || len(sm.Args) != len(m.Args) {
				t.Fatalf("streaming decode diverges on message %d: %+v vs %+v", i, sm, *m)
			}
			for j := range m.Args {
				if !bytes.Equal(sm.Args[j], m.Args[j]) {
					t.Fatalf("streaming decode diverges on message %d arg %d", i, j)
				}
			}
			rest = rest[n:]
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
	c     Conn
}

// remoteFuzzConn returns the live hostile connection, redialing (and
// re-handshaking) when a previous input got the connection torn down.
func remoteFuzzConn(t *testing.T) Conn {
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
		if _, err := remoteFuzz.front.handshakeClient(c); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		remoteFuzz.c = c
	}
	return remoteFuzz.c
}

// fuzzRecvResp reads the next response frame, skipping fCredit frames —
// the server's flow-control grants are transport-level traffic interleaved
// with responses, consumed by the peer's goroutine in real deployments.
func fuzzRecvResp(c Conn) ([]byte, error) {
	for {
		resp, err := c.Recv()
		if err != nil {
			return nil, err
		}
		if len(resp) >= 1 && resp[0] == fCredit {
			continue
		}
		return resp, nil
	}
}

// FuzzRemoteSubmitFrame drives the serving side of the batched-submission
// protocol with hostile frames on an attested connection: arbitrary request
// id bytes, caller/port fields, batch payloads (including overflowing
// count prefixes), and flow-control credit frames. The server must never
// panic; it answers every parseable request with either a completion
// vector or an fErr frame that echoes the request id and carries a valid
// non-EOK errno, and tears the connection down (cleanly) only when the
// request id is undecodable or a credit frame is malformed. A well-formed
// hostile credit — however large — must neither poison the connection nor
// unblock it past the advertised window (the server clamps).
func FuzzRemoteSubmitFrame(f *testing.F) {
	valid := MarshalBatch([]*Msg{{Op: "read", Obj: "obj"}, {Op: "write", Obj: "obj", Args: [][]byte{[]byte("x")}}})
	pp := binary.AppendUvarint(binary.AppendUvarint(nil, 7), 1)
	f.Add([]byte{1}, append(append([]byte{}, pp...), valid...), []byte(nil))
	f.Add([]byte{1}, append(append([]byte{}, pp...), 0xff, 0xff, 0xff, 0xff), []byte(nil)) // count overflow
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		append(append([]byte{}, pp...), valid...), []byte(nil)) // max uvarint id
	f.Add([]byte{0x80, 0x80}, []byte{}, []byte(nil))                                // torn id
	f.Add([]byte{2}, []byte{7, 1, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0}, []byte(nil)) // short msg
	f.Add([]byte{1}, append(append([]byte{}, pp...), valid...), []byte{1})          // benign credit
	f.Add([]byte{1}, append(append([]byte{}, pp...), valid...),
		binary.AppendUvarint(nil, ^uint64(0))) // huge credit: clamped, not poisoned
	f.Add([]byte{1}, append(append([]byte{}, pp...), valid...), []byte{0x80}) // torn credit uvarint
	f.Add([]byte{1}, append(append([]byte{}, pp...), valid...), []byte{1, 2}) // trailing credit bytes
	f.Fuzz(func(t *testing.T, idBytes, payload, credit []byte) {
		if len(idBytes) > 10 || len(payload) > 4096 || len(credit) > 16 {
			return
		}
		remoteFuzz.mu.Lock()
		defer remoteFuzz.mu.Unlock()
		c := remoteFuzzConn(t)
		creditOK := true
		if len(credit) > 0 {
			_, n := binary.Uvarint(credit)
			creditOK = n > 0 && n == len(credit) // server rule: exact uvarint payload
			if err := c.Send(append([]byte{fCredit}, credit...)); err != nil {
				remoteFuzz.c = nil
				return
			}
		}
		frame := append([]byte{fSubmit}, idBytes...)
		frame = append(frame, payload...)
		// The server parses the request id from the full remainder, so the
		// id bytes may run into the payload; mirror that here.
		wantID, n := binary.Uvarint(frame[1:])
		idOK := n > 0
		if err := c.Send(frame); err != nil {
			remoteFuzz.c = nil // conn died earlier; next input redials
			return
		}
		resp, err := fuzzRecvResp(c)
		if err != nil {
			// The server closed the connection: legal only when the request
			// id was undecodable or the preceding credit frame malformed.
			if idOK && creditOK {
				t.Fatalf("server dropped a frame with a decodable request id % x (credit % x)", idBytes, credit)
			}
			remoteFuzz.c = nil
			return
		}
		if !creditOK {
			t.Fatalf("server answered after malformed credit frame % x", credit)
		}
		// Return the consumed response credit so the server's window never
		// runs dry across iterations (the real peer's goroutine does the same).
		if err := c.Send([]byte{fCredit, 1}); err != nil {
			remoteFuzz.c = nil
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
				case wsAbiErr:
					en, ok1 := r.uvarint()
					_, ok2 := r.str()
					_, ok3 := r.str()
					if !ok1 || !ok2 || !ok3 {
						t.Fatalf("truncated wsAbiErr completion at %d", i)
					}
					if Errno(en) == EOK || Errno(en) > EAGAIN {
						t.Fatalf("per-op errno class lost: %d", en)
					}
				case wsHdlrErr:
					if _, ok := r.str(); !ok {
						t.Fatalf("truncated wsHdlrErr completion at %d", i)
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
