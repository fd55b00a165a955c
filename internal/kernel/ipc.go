package kernel

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/nal"
)

// Msg is an IPC request: an operation on an object with opaque arguments.
type Msg struct {
	Op   string
	Obj  string
	Args [][]byte
}

// Caller identifies the process a dispatch runs on behalf of, plus the
// target port. It is the value the ABI hands to handlers and reference
// monitors in place of raw kernel object pointers: everything a user-level
// server may learn about its peer crosses the boundary here, and nothing
// else does.
type Caller struct {
	// PID is the calling process id.
	PID int
	// Prin is the calling process's principal (kernel.ipd.<pid>).
	Prin nal.Principal
	// Port is the target port id; 0 is the kernel system-call channel.
	Port int
}

// Handler implements the server side of a port. The *Msg (and any wire
// buffer derived from it) is valid only for the duration of the call;
// handlers that retain arguments must copy them.
type Handler func(from Caller, m *Msg) ([]byte, error)

// Port is an IPC endpoint authoritatively bound to its owning process; the
// kernel produces the binding label "kernel says IPC.x speaksfor owner"
// (§2.4), which is what makes authority answers attributable.
type Port struct {
	ID    int
	Owner *Process
	h     Handler
	// chain is the port's interposition chain, copy-on-write so the
	// dispatch pipeline reads it with one atomic load.
	chain monChain
	// dead is set (under the registry owner lock) when the port leaves the
	// registry; capability handles resolve ports without a registry probe,
	// so this flag is what keeps a cached *Port from outliving teardown.
	dead atomic.Bool
}

// Prin returns the port's principal IPC.<id> as a subprincipal of the
// kernel, matching the kernel-issued binding label.
func (pt *Port) Prin(k *Kernel) nal.Principal {
	return nal.SubChain(k.Prin, "ipc", fmt.Sprint(pt.ID))
}

// CreatePort binds a new IPC port to the calling process and deposits the
// kernel's binding label in the owner's labelstore.
func (k *Kernel) CreatePort(owner *Process, h Handler) (*Port, error) {
	if owner == nil || h == nil {
		return nil, abiErr(EINVAL, "createport", "nil owner or handler")
	}
	pt := k.ports.create(owner, h)
	if owner.exited.Load() {
		// The owner raced Exit past the registration: whichever teardown
		// Exit's index walk missed is unwound here so no port outlives its
		// owner.
		k.ports.remove(pt.ID)
		k.chans.dropPort(pt.ID)
		return nil, abiErr(ESRCH, "createport", "owner exited")
	}

	// kernel says IPC.id speaksfor /proc/ipd/pid
	binding := nal.Says{P: k.Prin, F: nal.SpeaksFor{A: pt.Prin(k), B: owner.Prin}}
	owner.Labels.insertSystem(binding)
	return pt, nil
}

// FindPort resolves a port id.
func (k *Kernel) FindPort(id int) (*Port, bool) {
	return k.ports.find(id)
}

// Call performs a synchronous IPC from a process to a port through the
// unified dispatch pipeline: channel check, authorization (decision cache,
// then guard upcall), the interposition chain with parameter marshaling, and
// finally the handler.
func (k *Kernel) Call(from *Process, portID int, m *Msg) ([]byte, error) {
	pt, ok := k.ports.find(portID)
	if !ok {
		return nil, ErrNoSuchPort
	}
	return k.dispatch(from, pt, m, pt.h)
}

// syscall routes a kernel-implemented system call through the same dispatch
// pipeline as user IPC. Kernel services listen conceptually on port 0, the
// nil-port target of dispatch.
func (k *Kernel) syscall(from *Process, op, obj string, args [][]byte, fn func() error) error {
	// Degenerate-pipeline fast path: with interposition off there is no
	// protection-boundary copy to materialize, so run the only remaining
	// stage (authorization) directly and keep the Table 1 "bare" and
	// Figure 4 "system call" baselines allocation-free. The moment any
	// boundary machinery is on, the shared dispatch pipeline below runs.
	if flags := k.flags.Load(); flags&flagInterp == 0 {
		if flags&flagAuthz != 0 {
			if err := k.authorize(from, op, obj); err != nil {
				return err
			}
		}
		return fn()
	}
	m := &Msg{Op: op, Obj: obj, Args: args}
	_, err := k.dispatch(from, nil, m, func(Caller, *Msg) ([]byte, error) {
		return nil, fn()
	})
	return err
}

// appendMsgWire serializes a message into buf the way a kernel-mode switch
// with interpositioning must: length-prefixed op, obj, and argument
// buffers. The batch path amortizes allocation by appending every message
// of a submission into one arena.
func appendMsgWire(buf []byte, m *Msg) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(m.Op)))
	buf = append(buf, l[:]...)
	buf = append(buf, m.Op...)
	binary.LittleEndian.PutUint32(l[:], uint32(len(m.Obj)))
	buf = append(buf, l[:]...)
	buf = append(buf, m.Obj...)
	for _, a := range m.Args {
		binary.LittleEndian.PutUint32(l[:], uint32(len(a)))
		buf = append(buf, l[:]...)
		buf = append(buf, a...)
	}
	return buf
}

// msgWireSize is the exact wire length of a message.
func msgWireSize(m *Msg) int {
	n := 8 + len(m.Op) + len(m.Obj)
	for _, a := range m.Args {
		n += 4 + len(a)
	}
	return n
}

// marshalMsg serializes one message into a fresh buffer.
func marshalMsg(m *Msg) []byte {
	return appendMsgWire(make([]byte, 0, msgWireSize(m)), m)
}

// DecodeWire decodes a marshaled message; user-level reference monitors use
// it to inspect the copies they receive across the protection boundary.
// Argument buffers alias buf. Malformed input is an EINVAL-classed ABI
// error with one detail text, whatever part of the message is torn.
func DecodeWire(buf []byte) (*Msg, error) { return unmarshalMsg(buf) }

// MarshalMsgForBench exposes message marshaling to the ablation benchmarks.
func MarshalMsgForBench(m *Msg) []byte { return marshalMsg(m) }

// unmarshalMsg decodes a marshaled message into a fresh Msg with
// unmarshalMsgInto (wire_net.go), the one decoder of the message form,
// which the serving kernel's submission ingress also runs.
//
//nexus:errno
func unmarshalMsg(buf []byte) (*Msg, error) {
	m := &Msg{}
	if !unmarshalMsgInto(m, buf, nil) {
		return nil, abiErr(EINVAL, "decode-msg", "malformed message")
	}
	return m, nil
}
