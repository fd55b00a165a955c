// Revocation coherence of the authorization path under concurrent change.
package nexus

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// Coherence history bounds: the mutator's rounds (each revokes and then
// re-grants every tuple), the calling goroutines, and the most calls one
// of them makes while the mutator runs.
const (
	coRounds   = 32
	coWorkers  = 4
	coMaxCalls = 8000
)

// coKind is how a tuple's proof holds its credential.
type coKind int

const (
	coLocalRef   coKind = iota // a label reference, the label in a holder's store
	coLocalCert                // a certificate, registered locally
	coRemoteRef                // a label transferred to the caller's proxy
	coRemoteCert               // a certificate, registered over the wire
	coAuthority                // an embedded authority's answer
)

// coTuple is one guarded access tuple: a caller reading its own object on
// the serving kernel, and the credential state the mutator changes.
type coTuple struct {
	name   string
	kind   coKind
	obj    string
	caller *kernel.Session
	cap    kernel.Cap
	remote bool

	goal       nal.Formula // the goal the current grant discharges
	goalBroken bool        // the goal was cleared, or replaced by one nothing discharges

	holder   *kernel.Session // coLocalRef: whose store holds the label
	handle   int             // the label's handle in the holder's or proxy's store
	proxyPID int             // coRemoteRef: the proxy holding the label

	signer ed25519.PrivateKey // cert kinds
	cert   *cert.Certificate
	serial int64

	writes []coEvent // the mutator's changes, in order; writes[0] is the setup grant
}

// coEvent is one operation of the history: a call's outcome or the value a
// change writes, with the sequence numbers taken just before it was
// invoked and just after it returned.
type coEvent struct {
	tuple    int
	inv, ret uint64
	allow    bool
	what     string
}

// coWorld is two kernels over loopback: kStore serves the guarded port and
// decides with the generic guard, kFront hosts the remote callers.
type coWorld struct {
	t              *testing.T
	kStore, kFront *kernel.Kernel
	srv, sink      *kernel.Session
	port           int
	peer           *kernel.Peer
	authCh         string
	open           atomic.Bool // the embedded authority's answer
	seq            atomic.Uint64
	tuples         []*coTuple
}

func mayRead(obj string) nal.Formula {
	return nal.Pred{Name: "mayRead", Args: []nal.Term{nal.Str(obj)}}
}

// undischargeable is the goal a revoking SetGoal installs.
var undischargeable = nal.MustParse("?S says elevated")

// TestAuthorizationCoherence checks that every decision of a concurrent
// history is explained by some serial order consistent with real time
// (Amir et al., Deciding Serializability in Network Systems). Worker
// goroutines call guarded tuples locally and over the loopback transport,
// presenting label references, certificates and an authority's answer,
// while one mutator goroutine alternates, tuple by tuple, a revoking change
// with a re-grant, and probes the tuple after each. Every object is
// registered to the server as its creator, so a ClearGoal revokes too: the
// default policy then admits only the creator. Writes never overlap,
// so each tuple's expected outcome is a register: a call is explained iff
// its outcome is the value of a write invoked before the call returned
// that no later write had superseded, by returning, before the call was
// invoked. That catches stale allows and stale denials alike.
func TestAuthorizationCoherence(t *testing.T) {
	w := newCoWorld(t)
	for i := 0; i < 2; i++ {
		w.addTuple(coLocalRef, i)
		w.addTuple(coLocalCert, i)
		w.addTuple(coRemoteRef, i)
		w.addTuple(coRemoteCert, i)
	}
	w.addTuple(coAuthority, 0)
	for _, tp := range w.tuples {
		if allow, err := w.call(tp); err != nil || !allow {
			t.Fatalf("%s after setup: allow=%v err=%v", tp.name, allow, err)
		}
	}

	var done atomic.Bool
	histories := make([][]coEvent, coWorkers+1)
	var wg sync.WaitGroup
	for g := 0; g < coWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < coMaxCalls && !done.Load(); n++ {
				i := rng.Intn(len(w.tuples))
				e, err := w.record(i)
				if err != nil {
					t.Errorf("%s: %v", w.tuples[i].name, err)
					return
				}
				histories[g] = append(histories[g], e)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		probes := &histories[coWorkers]
		for r := 0; r < coRounds; r++ {
			for i, tp := range w.tuples {
				for _, grant := range []bool{false, true} {
					if err := w.mutate(i, r, grant); err != nil {
						t.Errorf("%s round %d: %v", tp.name, r, err)
						return
					}
					e, err := w.record(i)
					if err != nil {
						t.Errorf("%s probe: %v", tp.name, err)
						return
					}
					*probes = append(*probes, e)
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	calls := make([][]coEvent, len(w.tuples))
	total := 0
	for _, h := range histories {
		for _, e := range h {
			calls[e.tuple] = append(calls[e.tuple], e)
			total++
		}
	}
	bad := 0
	for i, tp := range w.tuples {
		for _, c := range calls[i] {
			if !explained(tp.writes, c) {
				if bad++; bad <= 5 {
					t.Errorf("%s: call [%d,%d] returned allow=%v, which no write explains; writes around it: %s",
						tp.name, c.inv, c.ret, c.allow, around(tp.writes, c))
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d calls unexplained", bad, total)
	}
	t.Logf("%d calls, %d writes, all explained", total, len(w.tuples)*(2*coRounds+1))
}

// explained reports whether call c's outcome is the value of a write that
// was invoked before c returned and that no write returning before c was
// invoked superseded. writes are serial, in order, and writes[0] returned
// before any call was invoked.
func explained(writes []coEvent, c coEvent) bool {
	lo, hi := candidates(writes, c)
	for _, wr := range writes[lo : hi+1] {
		if wr.allow == c.allow {
			return true
		}
	}
	return false
}

// candidates returns the span of writes whose value call c may read: from
// the last write that returned before c was invoked to the last write
// invoked before c returned.
func candidates(writes []coEvent, c coEvent) (lo, hi int) {
	lo = sort.Search(len(writes), func(j int) bool { return writes[j].ret >= c.inv }) - 1
	hi = sort.Search(len(writes), func(j int) bool { return writes[j].inv >= c.ret }) - 1
	return lo, hi
}

// around renders the writes call c may read, for a failure message.
func around(writes []coEvent, c coEvent) string {
	lo, hi := candidates(writes, c)
	s := ""
	for _, wr := range writes[lo : hi+1] {
		s += fmt.Sprintf(" %s[%d,%d]=%v", wr.what, wr.inv, wr.ret, wr.allow)
	}
	return s
}

func newCoWorld(t *testing.T) *coWorld {
	t.Helper()
	w := &coWorld{t: t}
	w.kStore = allocKernelTB(t, kernel.Options{})
	g := guard.New(w.kStore)
	w.kStore.SetGuard(g)
	w.open.Store(true)
	w.authCh = g.RegisterEmbedded("open", func(nal.Formula) bool { return w.open.Load() })
	w.kFront = allocKernelTB(t, kernel.Options{})
	w.kFront.SetGuard(guard.New(w.kFront))

	var err error
	if w.srv, err = w.kStore.NewSession([]byte("co-srv")); err != nil {
		t.Fatal(err)
	}
	if w.sink, err = w.kStore.NewSession([]byte("co-sink")); err != nil {
		t.Fatal(err)
	}
	pc, err := w.srv.Listen(func(kernel.Caller, *kernel.Msg) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	w.port, _ = w.srv.PortOf(pc)

	lt := kernel.NewLoopbackTransport()
	nStore := kernel.NewNode(w.kStore)
	l, err := lt.Listen("coherence")
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	t.Cleanup(nStore.Close)
	if err := nStore.Export("svc", w.port); err != nil {
		t.Fatal(err)
	}
	nFront := kernel.NewNode(w.kFront)
	t.Cleanup(nFront.Close)
	if w.peer, err = nFront.Dial(lt, l.Addr()); err != nil {
		t.Fatal(err)
	}
	return w
}

// addTuple creates a tuple of kind with its own caller and object, and
// grants it: its setup grant is writes[0].
func (w *coWorld) addTuple(kind coKind, i int) {
	t := w.t
	t.Helper()
	name := fmt.Sprintf("%s/%d", [...]string{"local-ref", "local-cert", "remote-ref", "remote-cert", "authority"}[kind], i)
	tp := &coTuple{name: name, kind: kind, obj: "/" + name}
	w.kStore.RegisterObject(tp.obj, w.srv.Prin())
	var err error
	tp.remote = kind == coRemoteRef || kind == coRemoteCert
	if tp.remote {
		if tp.caller, err = w.kFront.NewSession([]byte(name)); err == nil {
			tp.cap, err = tp.caller.Connect(w.peer, "svc")
		}
	} else if tp.caller, err = w.kStore.NewSession([]byte(name)); err == nil {
		tp.cap, err = tp.caller.Open(w.port)
	}
	if err != nil {
		t.Fatal(err)
	}
	switch kind {
	case coLocalRef:
		tp.goal = nal.MustParse("?S says mayRead(?O)")
	case coRemoteRef:
		tp.goal = nal.Says{P: nal.Key(w.kFront.NKFingerprint()), F: nal.MustParse("?S says mayRead(?O)")}
	case coAuthority:
		tp.goal = nal.MustParse("Doorman says open")
		tp.caller.SetProof("read", tp.obj, &proof.Proof{Steps: []proof.Step{
			{Rule: proof.RuleAuthority, Channel: w.authCh, F: tp.goal},
		}}, nil)
	}
	if tp.goal != nil {
		if err := w.srv.SetGoal("read", tp.obj, tp.goal, nil); err != nil {
			t.Fatal(err)
		}
	}
	w.tuples = append(w.tuples, tp)
	if err := w.grant(tp); err != nil {
		t.Fatalf("%s: setup grant: %v", name, err)
	}
	tp.writes = []coEvent{{allow: true, what: "setup"}}
}

// call makes the tuple's call and reports its decision; any error but a
// denial is returned.
func (w *coWorld) call(tp *coTuple) (allow bool, err error) {
	m := &kernel.Msg{Op: "read", Obj: tp.obj}
	if tp.remote {
		_, err = tp.caller.CallRemote(tp.cap, m)
	} else {
		_, err = tp.caller.Call(tp.cap, m)
	}
	if err != nil && kernel.ErrnoOf(err) == kernel.EACCES {
		return false, nil
	}
	return err == nil, err
}

// record makes tuple i's call between two sequence numbers.
func (w *coWorld) record(i int) (coEvent, error) {
	e := coEvent{tuple: i, inv: w.seq.Add(1)}
	allow, err := w.call(w.tuples[i])
	e.ret = w.seq.Add(1)
	e.allow = allow
	return e, err
}

// mutate makes the round's revoking change to tuple i, or re-grants it,
// and logs the write between two sequence numbers. The revoking changes
// rotate through everything that can take the tuple's credential away.
func (w *coWorld) mutate(i, round int, grant bool) error {
	tp := w.tuples[i]
	e := coEvent{tuple: i, allow: grant, what: "grant"}
	var change func() error
	if grant {
		change = func() error { return w.grant(tp) }
	} else {
		revokers := map[coKind][]string{
			coLocalRef:   {"delete", "transfer", "exit", "clearproof", "setgoal", "cleargoal"},
			coLocalCert:  {"revoke", "revokesigner", "clearproof", "setgoal", "cleargoal"},
			coRemoteRef:  {"delete", "exit", "setgoal", "cleargoal"},
			coRemoteCert: {"revoke", "revokesigner", "setgoal", "cleargoal"},
			coAuthority:  {"flip", "cleargoal"},
		}[tp.kind]
		e.what = revokers[(round+i)%len(revokers)]
		change = func() error { return w.revoke(tp, e.what) }
	}
	e.inv = w.seq.Add(1)
	err := change()
	e.ret = w.seq.Add(1)
	tp.writes = append(tp.writes, e)
	return err
}

// revoke makes one revoking change to tp.
func (w *coWorld) revoke(tp *coTuple, what string) error {
	switch what {
	case "delete":
		store := w.proxyOrHolder(tp)
		if store == nil {
			return fmt.Errorf("label holder gone")
		}
		return store.Delete(tp.handle)
	case "transfer":
		_, err := tp.holder.TransferLabel(tp.handle, w.sink.PID())
		return err
	case "exit":
		if tp.kind == coRemoteRef {
			p, ok := w.kStore.Lookup(tp.proxyPID)
			if !ok {
				return fmt.Errorf("proxy %d gone", tp.proxyPID)
			}
			p.Exit()
			return nil
		}
		tp.holder.Exit()
		tp.holder = nil
		return nil
	case "clearproof":
		tp.caller.ClearProof("read", tp.obj)
		return nil
	case "setgoal":
		tp.goalBroken = true
		return w.srv.SetGoal("read", tp.obj, undischargeable, nil)
	case "cleargoal":
		tp.goalBroken = true
		return w.srv.ClearGoal("read", tp.obj)
	case "revoke":
		w.kStore.CertCache().Revoke(tp.cert.Fingerprint())
		return nil
	case "revokesigner":
		fp := cert.FingerprintEd25519(tp.signer.Public().(ed25519.PublicKey))
		w.kStore.CertCache().RevokeSigner(fp)
		tp.signer = nil
		return nil
	case "flip":
		w.open.Store(false)
		return nil
	}
	return fmt.Errorf("unknown change %q", what)
}

// proxyOrHolder returns the labelstore holding tp's label reference.
func (w *coWorld) proxyOrHolder(tp *coTuple) *kernel.Labelstore {
	if tp.kind == coLocalRef {
		return tp.holder.Labels()
	}
	if p, ok := w.kStore.Lookup(tp.proxyPID); ok {
		return p.Labels
	}
	return nil
}

// grant gives tp a fresh credential its goal accepts: the original goal
// back if a SetGoal or ClearGoal broke it, then a new label or certificate (a new
// signer, and the goal naming it, after a signer revocation) and the
// proof citing it, or the authority's yes.
func (w *coWorld) grant(tp *coTuple) error {
	if tp.goalBroken {
		if err := w.srv.SetGoal("read", tp.obj, tp.goal, nil); err != nil {
			return err
		}
		tp.goalBroken = false
	}
	switch tp.kind {
	case coLocalRef:
		if tp.holder == nil {
			h, err := w.kStore.NewSession([]byte("co-holder"))
			if err != nil {
				return err
			}
			tp.holder = h
		}
		l, err := tp.caller.SayFormula(mayRead(tp.obj))
		if err != nil {
			return err
		}
		moved, err := tp.caller.TransferLabel(l.Handle, tp.holder.PID())
		if err != nil {
			return err
		}
		tp.handle = moved.Handle
		tp.caller.SetProof("read", tp.obj, proof.Assume(0, l.Formula),
			[]kernel.Credential{{Ref: &kernel.LabelRef{PID: tp.holder.PID(), Handle: moved.Handle}}})
	case coRemoteRef:
		l, err := tp.caller.SayFormula(mayRead(tp.obj))
		if err != nil {
			return err
		}
		rl, err := tp.caller.TransferLabelRemote(w.peer, l.Handle)
		if err != nil {
			return err
		}
		tp.proxyPID, tp.handle = rl.PID, rl.Handle
		said := nal.Says{P: nal.Key(w.kFront.NKFingerprint()), F: l.Formula}
		return tp.caller.SetProofRemote(w.peer, "read", tp.obj, proof.Assume(0, said),
			[]kernel.RemoteCred{{Ref: rl.Handle}})
	case coLocalCert, coRemoteCert:
		if tp.signer == nil {
			_, key, err := ed25519.GenerateKey(nil)
			if err != nil {
				return err
			}
			tp.signer = key
			fp := cert.FingerprintEd25519(key.Public().(ed25519.PublicKey))
			tp.goal = nal.Says{P: nal.Key(fp), F: nal.MustParse("mayRead(?O)")}
			if err := w.srv.SetGoal("read", tp.obj, tp.goal, nil); err != nil {
				return err
			}
		}
		tp.serial++
		c, err := cert.SignEd25519(cert.Statement{
			Formula: mayRead(tp.obj).String(),
			Serial:  tp.serial,
			Issued:  time.Unix(1700000000, 0),
		}, tp.signer)
		if err != nil {
			return err
		}
		tp.cert = c
		label, err := c.ToLabel()
		if err != nil {
			return err
		}
		if tp.kind == coRemoteCert {
			return tp.caller.SetProofRemote(w.peer, "read", tp.obj, proof.Assume(0, label),
				[]kernel.RemoteCred{{Cert: c}})
		}
		tp.caller.SetProof("read", tp.obj, proof.Assume(0, label), []kernel.Credential{{Cert: c}})
	case coAuthority:
		w.open.Store(true)
	}
	return nil
}
