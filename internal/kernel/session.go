package kernel

import (
	"context"
	"time"

	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// Session is the typed user↔kernel ABI: the only surface user-level code
// needs to interact with a Nexus kernel. A Session pairs one process with
// its per-process capability handle table; every kernel object the process
// may touch — the ports it listens on, the channels it may call, the
// objects it guards — is named by an opaque Cap issued by this table, so
// raw kernel pointers (*Process, *Port) never cross the package boundary
// into user-level code. The package boundary models the privilege boundary
// the Nexus hardware enforced.
//
// Naming vs. rights: global port ids (ints) are public names, safe to pass
// around out of band; a Cap is a right, local to one session, revoked when
// the session exits. Open converts a name into a right (recording the
// channel capability the connectivity analyzer inspects); Grant hands a
// right directly to a peer session.
//
// Errors returned by Session methods carry the errno-style *Error taxonomy
// (EACCES, EBADF, ENOENT, ...); errors.Is against the legacy sentinels
// (ErrDenied, ErrNoSuchPort, ...) continues to work.
//
// A Session's data-path methods (Call, Submit) are safe for concurrent use,
// as are the control-plane methods; the zero Session is invalid — obtain
// one from Kernel.NewSession or Session.Spawn.
type Session struct {
	k  *Kernel
	p  *Process
	ht handleTable
}

// NewSession launches a new root protection domain from the given program
// image and returns its ABI session.
func (k *Kernel) NewSession(image []byte) (*Session, error) {
	return k.newSession(0, image)
}

// Spawn launches a child protection domain of this session's process.
func (s *Session) Spawn(image []byte) (*Session, error) {
	return s.k.newSession(s.p.PID, image)
}

func (k *Kernel) newSession(parent int, image []byte) (*Session, error) {
	p, err := k.CreateProcess(parent, image)
	if err != nil {
		return nil, err
	}
	s := &Session{k: k, p: p}
	s.ht.init()
	k.handles.insert(p.PID, &s.ht)
	if p.exited.Load() {
		// The process raced Exit past the registration; unwind.
		k.handles.dropPID(p.PID)
		return nil, abiErr(ESRCH, "newsession", "process exited during creation")
	}
	return s, nil
}

// PID returns the session's process id.
func (s *Session) PID() int { return s.p.PID }

// ParentPID returns the parent process id (0 for root sessions).
func (s *Session) ParentPID() int { return s.p.Parent }

// Prin returns the session's principal (kernel.ipd.<pid>, §2.4).
func (s *Session) Prin() nal.Principal { return s.p.Prin }

// ImageHash returns the hex SHA-1 launch-time hash of the program image.
func (s *Session) ImageHash() string { return s.p.Hash }

// Kernel returns the kernel this session runs on (for platform-level
// operations such as installing guards or reading introspection).
func (s *Session) Kernel() *Kernel { return s.k }

// Exit terminates the session's process: handles are drained, ports are
// closed, grants revoked, authorities retracted. Idempotent.
func (s *Session) Exit() { s.p.Exit() }

// Exited reports whether the session's process has terminated.
func (s *Session) Exited() bool { return s.p.Exited() }

// ---- Capability handles ------------------------------------------------

// Listen creates an IPC port owned by this session and returns the owner
// handle for it. The kernel deposits the §2.4 binding label ("kernel says
// IPC.id speaksfor owner") in the session's labelstore. PortOf converts the
// handle into the port's public name for sharing with peers.
func (s *Session) Listen(h Handler) (Cap, error) {
	pt, err := s.k.CreatePort(s.p, h)
	if err != nil {
		return 0, err
	}
	c, ok := s.ht.alloc(hslot{kind: capPort, port: pt})
	if !ok {
		// The session raced Exit; CreatePort's own unwind may have run
		// before the port registered, so redo it idempotently.
		s.k.ports.remove(pt.ID)
		s.k.chans.dropPort(pt.ID)
		return 0, abiErr(ESRCH, "listen", "session exited")
	}
	return c, nil
}

// Open converts a port's public name into a channel handle: the session
// records a channel capability to the port (the edge the §2.2 connectivity
// analyzer sees) and receives a Cap it can Call through.
//
// The handle is published before the grant lands: a concurrent Close of a
// sibling handle decides whether to revoke the pid-level grant by scanning
// the table, so the slot must be visible first — otherwise the scan could
// miss it and revoke the capability out from under a successfully returned
// handle.
func (s *Session) Open(portID int) (Cap, error) {
	pt, ok := s.k.ports.find(portID)
	if !ok {
		return 0, ErrNoSuchPort
	}
	c, ok := s.ht.alloc(hslot{kind: capChan, port: pt})
	if !ok {
		return 0, abiErr(ESRCH, "open", "session exited")
	}
	s.ht.chanMu.Lock()
	err := s.k.GrantChannel(s.p, portID)
	s.ht.chanMu.Unlock()
	if err != nil {
		// GrantChannel's own unwind handled the exited/dead-port cleanup;
		// drop the slot it was meant to back (idempotent after a drain).
		s.ht.close(c)
		return 0, err
	}
	return c, nil
}

// OpenObject returns an object handle naming a guarded object. A nascent
// name (no recorded creator yet) is registered to this session as creator,
// so the §2.6 default policy protects it — and goals on it can be set by
// this session — before any other session claims it. Opening a name that
// already has a creator leaves the creator binding untouched.
func (s *Session) OpenObject(name string) (Cap, error) {
	if name == "" {
		return 0, abiErr(EINVAL, "openobject", "empty object name")
	}
	c, ok := s.ht.alloc(hslot{kind: capObj, obj: name})
	if !ok {
		return 0, abiErr(ESRCH, "openobject", "session exited")
	}
	s.k.registerObjectIfNascent(name, s.p.Prin)
	return c, nil
}

// Grant hands a channel to a peer session: the peer gains the channel
// capability and a handle of its own. The granter must itself hold a port
// or channel handle for the target.
func (s *Session) Grant(to *Session, c Cap) (Cap, error) {
	sl, ok := s.ht.lookup(c)
	if !ok || sl.port == nil {
		return 0, ErrBadHandle
	}
	return to.Open(sl.port.ID)
}

// Dup duplicates a handle; the copy resolves to the same referent until
// closed independently.
func (s *Session) Dup(c Cap) (Cap, error) {
	sl, ok := s.ht.lookup(c)
	if !ok {
		return 0, ErrBadHandle
	}
	nc, ok2 := s.ht.alloc(sl)
	if !ok2 {
		return 0, abiErr(ESRCH, "dup", "session exited")
	}
	if sl.kind == capChan {
		// Re-assert the pid-level grant: a concurrent Close of the source
		// handle between lookup and alloc may have revoked it, and the dup
		// must be a usable right on return.
		s.ht.chanMu.Lock()
		err := s.k.GrantChannel(s.p, sl.port.ID)
		s.ht.chanMu.Unlock()
		if err != nil {
			s.ht.close(nc)
			return 0, err
		}
	}
	return nc, nil
}

// Close releases a handle. Closing the last channel handle to a port
// revokes the session's channel capability to it; closing an owner handle
// tears the port down (grants to it are revoked, authorities retracted).
func (s *Session) Close(c Cap) error {
	sl, ok := s.ht.close(c)
	if !ok {
		return ErrBadHandle
	}
	switch sl.kind {
	case capPort, capRemote:
		if s.k.ports.remove(sl.port.ID) {
			s.k.chans.dropPort(sl.port.ID)
			s.k.dropAuthorities([]int{sl.port.ID})
		}
	case capChan:
		s.ht.chanMu.Lock()
		if !s.ht.refsPort(sl.port) {
			s.k.chans.revoke(s.p.PID, sl.port.ID)
		}
		s.ht.chanMu.Unlock()
	}
	return nil
}

// PortOf returns the public port name behind a port or channel handle.
func (s *Session) PortOf(c Cap) (int, error) {
	sl, ok := s.ht.lookup(c)
	if !ok || sl.port == nil {
		return 0, ErrBadHandle
	}
	return sl.port.ID, nil
}

// ObjectOf returns the object name behind an object handle.
func (s *Session) ObjectOf(c Cap) (string, error) {
	sl, ok := s.ht.lookup(c)
	if !ok || sl.kind != capObj {
		return "", ErrBadHandle
	}
	return sl.obj, nil
}

// Handles reports the number of live capability handles (introspection).
func (s *Session) Handles() int { return s.ht.len() }

// ListeningPort returns the public name of the session's listening port —
// the convenience for the common one-port-server shape. With several ports
// it returns the lowest-numbered live one; with none, EBADF.
func (s *Session) ListeningPort() (int, error) {
	best := 0
	for i := range s.ht.shards {
		sh := &s.ht.shards[i]
		sh.mu.RLock()
		for _, sl := range sh.m {
			if sl.kind == capPort && !sl.port.dead.Load() && (best == 0 || sl.port.ID < best) {
				best = sl.port.ID
			}
		}
		sh.mu.RUnlock()
	}
	if best == 0 {
		return 0, ErrBadHandle
	}
	return best, nil
}

// resolve maps a Cap to its target for dispatch: a port for port/channel
// handles, or nil with the object name for object handles (which dispatch
// as authorization-checked null system calls). One handle-shard read-lock.
func (s *Session) resolve(c Cap) (*Port, string, *Error) {
	sl, ok := s.ht.lookup(c)
	if !ok {
		return nil, "", errBadHandleV
	}
	if sl.kind == capObj {
		return nil, sl.obj, nil
	}
	return sl.port, "", nil
}

// errBadHandleV is the preallocated EBADF error the warm resolve path
// returns, so stale-handle probes do not allocate.
var errBadHandleV = &Error{Errno: EBADF, Op: "resolve", Detail: "stale or foreign capability handle"}

// ---- Data path ---------------------------------------------------------

// Call performs a synchronous IPC through a channel (or owner) handle: one
// handle-table read resolves the right, then the call runs the unified
// dispatch pipeline (channel check, authorization, interposition, invoke).
func (s *Session) Call(c Cap, m *Msg) ([]byte, error) {
	pt, obj, aerr := s.resolve(c)
	if aerr != nil {
		return nil, aerr
	}
	if pt == nil {
		// Object handle: an authorization-checked null operation on the
		// object via the syscall channel.
		return nil, s.k.syscall(s.p, m.Op, obj, m.Args, func() error { return nil })
	}
	return s.k.dispatch(s.p, pt, m, pt.h)
}

// CallContext is Call honoring context cancellation: the context is checked
// once before dispatch (calls are synchronous and non-blocking in the
// simulation, so there is no mid-call cancellation point).
func (s *Session) CallContext(ctx context.Context, c Cap, m *Msg) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, abiErr(ECANCELED, m.Op, err.Error())
	}
	return s.Call(c, m)
}

// ---- Labels and attestation -------------------------------------------

// Labels exposes the session's labelstore.
func (s *Session) Labels() *Labelstore { return s.p.Labels }

// Say utters a statement, recording "caller says statement" in the
// session's labelstore.
func (s *Session) Say(statement string) (*Label, error) { return s.p.Labels.Say(statement) }

// SayFormula is Say for pre-parsed formulas.
func (s *Session) SayFormula(f nal.Formula) (*Label, error) { return s.p.Labels.SayFormula(f) }

// Attest externalizes a label into the TPM-rooted certificate chain of
// §2.4 ("TPM says kernel says process says S") for consumption outside
// this Nexus instance.
func (s *Session) Attest(labelHandle int) (*ExternalLabel, error) {
	return s.p.Labels.Externalize(labelHandle)
}

// ImportLabel verifies an external label and deposits the key-attributed
// formula in the session's labelstore.
func (s *Session) ImportLabel(ext *ExternalLabel) (*Label, error) {
	return s.p.Labels.Import(ext)
}

// TransferLabel moves a label from this session's store to the process
// identified by pid (typically a Caller.PID observed in a handler).
func (s *Session) TransferLabel(labelHandle, toPID int) (*Label, error) {
	dst, ok := s.k.procs.get(toPID)
	if !ok {
		return nil, abiErr(ESRCH, "transferlabel", "no such process")
	}
	return s.p.Labels.Transfer(labelHandle, dst.Labels)
}

// ---- Policy ------------------------------------------------------------

// SetGoal associates a goal formula with an operation on an object (itself
// an authorized operation on the object) and vectors decisions to the given
// guard (nil = the kernel's default guard).
func (s *Session) SetGoal(op, obj string, goal nal.Formula, g Guard) error {
	return s.k.SetGoal(s.p, op, obj, goal, g)
}

// ClearGoal removes the goal for (op, obj).
func (s *Session) ClearGoal(op, obj string) error {
	return s.k.ClearGoal(s.p, op, obj)
}

// SetProof registers this session's proof for an access tuple; the kernel
// compiles it and interns inline credentials once at registration.
func (s *Session) SetProof(op, obj string, p *proof.Proof, creds []Credential) {
	s.k.SetProof(s.p, op, obj, p, creds)
}

// ClearProof removes the session's proof for the tuple.
func (s *Session) ClearProof(op, obj string) {
	s.k.ClearProof(s.p, op, obj)
}

// RegisterObject records this session as creator of a nascent object so
// the §2.6 default policy protects it before any goal is set.
func (s *Session) RegisterObject(obj string) {
	s.k.RegisterObject(obj, s.p.Prin)
}

// Interpose binds a reference monitor to a port by public name (0 = the
// kernel system-call channel), authorized by the "interpose" goal on the
// channel. Returns the removal handle.
func (s *Session) Interpose(portID int, mon Interposer) (int, error) {
	return s.k.Interpose(s.p, portID, mon)
}

// Deinterpose removes a previously bound monitor.
func (s *Session) Deinterpose(portID, handle int) error {
	return s.k.Deinterpose(s.p, portID, handle)
}

// RegisterAuthority creates an attested authority port owned by this
// session whose answer function is consulted live on every query (§2.7).
func (s *Session) RegisterAuthority(answer func(f nal.Formula) bool) (*Authority, error) {
	return s.k.RegisterAuthority(s.p, answer)
}

// ---- Kernel system calls ----------------------------------------------

// GetPPID is the getppid system call.
func (s *Session) GetPPID() (int, error) { return s.p.GetPPID() }

// GetTimeOfDay is the gettimeofday system call.
func (s *Session) GetTimeOfDay() (time.Time, error) { return s.p.GetTimeOfDay() }

// Yield is the scheduler yield system call.
func (s *Session) Yield() error { return s.p.Yield() }

// Null is the empty system call used to measure invocation overhead.
func (s *Session) Null() error { return s.p.Null() }
