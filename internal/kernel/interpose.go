package kernel

import (
	"fmt"

	"repro/internal/nal"
)

// Verdict is a reference monitor's decision on an intercepted call.
type Verdict int

// Verdicts.
const (
	VerdictAllow Verdict = iota
	VerdictBlock
)

// Interposer is a reference monitor bound to an IPC channel (§3.2). OnCall
// sees the request (and its marshaled form) before the handler runs and may
// block it or mutate the message in place; OnReturn sees and may rewrite the
// response. Interposition composes: multiple monitors stack on one channel,
// and the interpose call itself can be monitored.
//
// Every call path keeps this contract: Kernel.Call, Session.Call and
// Submit, and on a remote handle CallRemote and SubmitRemote, hand the
// handler (across the wire, for a remote one) the message as the chain
// left it, and pass every admitted call's result through OnReturn,
// whatever its error.
//
// Monitors receive the caller as an ABI value (Caller), never a kernel
// object pointer. The wire buffer is valid only for the duration of the
// call — batched submissions marshal into a reused arena — so a monitor
// that retains it must copy.
type Interposer interface {
	OnCall(from Caller, m *Msg, wire []byte) Verdict
	OnReturn(from Caller, m *Msg, out []byte) []byte
}

// Interpose binds a reference monitor to an IPC port and returns a handle
// for later removal. As with every Nexus system call, the binding is
// authorized: the monitor process must discharge the "interpose" goal on the
// channel — typically by presenting a consent credential from the monitored
// process (§3.2). Port 0 denotes the kernel system-call channel.
//
// The chain is copy-on-write: binding clones and republishes it, so calls
// already in flight finish against the snapshot they loaded and never see a
// half-installed monitor.
func (k *Kernel) Interpose(caller *Process, portID int, mon Interposer) (int, error) {
	if mon == nil {
		return 0, abiErr(EINVAL, "interpose", "nil monitor")
	}
	if portID != 0 {
		if _, ok := k.ports.find(portID); !ok {
			return 0, ErrNoSuchPort
		}
	}
	obj := fmt.Sprintf("port:%d", portID)
	if err := k.authorize(caller, "interpose", obj); err != nil {
		return 0, err
	}
	id := int(k.ports.nextMon.Add(1))
	entry := monEntry{id: id, Interposer: mon}
	if portID == 0 {
		k.ports.sysChain.add(entry) // the syscall channel is never removed
		return id, nil
	}
	// The membership check and chain publish are atomic with respect to
	// port removal (both run under the registry's owner lock), so a
	// monitor either lands on a live port — success, even if the port dies
	// immediately after — or the bind fails; a dead port's chain is never
	// mutated and a monitor never observes a call after a failed bind.
	if !k.ports.interpose(portID, entry) {
		return 0, ErrNoSuchPort
	}
	return id, nil
}

// Deinterpose removes a previously bound monitor by handle. Like Interpose,
// the membership check and chain mutation linearize against port teardown
// under the registry owner lock: a dead port's chain is never mutated, and
// removal on a dying port fails with ENOENT instead of racing the sweep.
func (k *Kernel) Deinterpose(caller *Process, portID int, handle int) error {
	obj := fmt.Sprintf("port:%d", portID)
	if portID == 0 {
		if err := k.authorize(caller, "interpose", obj); err != nil {
			return err
		}
		if !k.ports.sysChain.removeByHandle(handle) {
			return abiErr(EINVAL, "deinterpose", "no such monitor handle")
		}
		return nil
	}
	if _, ok := k.ports.find(portID); !ok {
		return ErrNoSuchPort
	}
	if err := k.authorize(caller, "interpose", obj); err != nil {
		return err
	}
	found, live := k.ports.deinterpose(portID, handle)
	if !live {
		return ErrNoSuchPort
	}
	if !found {
		return abiErr(EINVAL, "deinterpose", "no such monitor handle")
	}
	return nil
}

// monEntry pairs a monitor with its registration handle.
type monEntry struct {
	id int
	Interposer
}

// Monitors reports the number of monitors on a port as an atomic snapshot
// of its published chain: the count is coherent with some linearization of
// concurrent Interpose/Deinterpose calls, and a torn-down port reports 0.
func (k *Kernel) Monitors(portID int) int {
	if portID == 0 {
		return k.ports.sysChain.len()
	}
	pt, ok := k.ports.find(portID)
	if !ok {
		return 0
	}
	return pt.chain.len()
}

// FuncMonitor adapts plain functions to the Interposer interface.
type FuncMonitor struct {
	Call func(from Caller, m *Msg, wire []byte) Verdict
	Ret  func(from Caller, m *Msg, out []byte) []byte
}

// OnCall implements Interposer.
func (f FuncMonitor) OnCall(from Caller, m *Msg, wire []byte) Verdict {
	if f.Call == nil {
		return VerdictAllow
	}
	return f.Call(from, m, wire)
}

// OnReturn implements Interposer.
func (f FuncMonitor) OnReturn(from Caller, m *Msg, out []byte) []byte {
	if f.Ret == nil {
		return out
	}
	return f.Ret(from, m, out)
}

// ConsentGoal is a convenience constructing the conventional goal formula
// for the interpose operation on a port: the monitored process (the port
// owner) must have said consentToMonitor(port).
func ConsentGoal(owner nal.Principal, portID int) nal.Formula {
	return nal.Says{P: owner, F: nal.Pred{
		Name: "consentToMonitor",
		Args: []nal.Term{nal.Int(int64(portID))},
	}}
}
