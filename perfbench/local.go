package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/disk"
	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
	"repro/internal/tpm"
)

// local-authz-mix: one kernel, goal-protected port, two client sessions
// calling it through Session.Call. The mix puts the decision cache, the
// guard, the proof checker and the audit log on the critical path and the
// transport nowhere on it.
const (
	inlineObjs = 64  // per client: inline credentials, decision-cache hits
	labelObjs  = 192 // per client: label references, never cached
	denyObjs   = 16  // per client: labels that do not discharge the goal
)

// Mix, in percent of operations.
const (
	pctInline = 88
	pctLabel  = 8
	pctDeny   = 2
	// The remaining 2% re-bind an inline tuple's proof with SetProof.
)

const (
	opInline = iota
	opLabel
	opDeny
	opRebind
)

// planLen is the length of each client's pre-generated operation cycle.
const planLen = 1 << 16

type tuple struct {
	obj   string
	msg   *kernel.Msg
	want  []byte
	pf    *proof.Proof
	creds []kernel.Credential
}

type localClient struct {
	s      *kernel.Session
	cap    kernel.Cap
	tuples [3][]tuple // by opInline, opLabel, opDeny
	plan   []uint32   // kind<<24 | tuple index
}

type localMix struct {
	seed    int64
	k       *kernel.Kernel
	g       *guard.Generic
	clients []*localClient
	denials []uint64 // per client: expected EACCES outcomes
}

func newLocalMix(seed int64, clients int) *localMix {
	return &localMix{seed: seed, clients: make([]*localClient, clients), denials: make([]uint64, clients)}
}

func (w *localMix) tpms() int { return 1 }

// mayRead is the statement a client's credential for obj carries.
func mayRead(obj string) nal.Formula {
	return nal.Pred{Name: "mayRead", Args: []nal.Term{nal.Str(obj)}}
}

func objName(kind, i int) string {
	return fmt.Sprintf("/%s/%d", [...]string{"inline", "label", "deny"}[kind], i)
}

func (w *localMix) setup(st *setupRun, tpms []*tpm.TPM, tr []*tracer, _ *serverSpans) error {
	if err := st.step("boot", func() (err error) {
		w.k, err = kernel.Boot(tpms[0], disk.New(), kernel.Options{})
		if err != nil {
			return err
		}
		w.g = guard.New(w.k)
		return nil
	}); err != nil {
		return err
	}
	return st.step("provision", func() error {
		replies := map[string][]byte{}
		srv, err := w.k.NewSession([]byte("authz-server"))
		if err != nil {
			return err
		}
		pc, err := srv.Listen(func(_ kernel.Caller, m *kernel.Msg) ([]byte, error) {
			if r, ok := replies[m.Obj]; ok {
				return r, nil
			}
			return nil, fmt.Errorf("no object %q", m.Obj)
		})
		if err != nil {
			return err
		}
		port, err := srv.PortOf(pc)
		if err != nil {
			return err
		}
		goal := nal.MustParse("?S says mayRead(?O)")
		counts := [3]int{inlineObjs, labelObjs, denyObjs}
		for kind, n := range counts {
			for i := 0; i < n; i++ {
				obj := objName(kind, i)
				replies[obj] = []byte("contents of " + obj)
				if err := srv.SetGoal("read", obj, goal, nil); err != nil {
					return err
				}
			}
		}
		for ci := range w.clients {
			c := &localClient{}
			w.clients[ci] = c
			if c.s, err = w.k.NewSession([]byte(fmt.Sprintf("authz-client-%d", ci))); err != nil {
				return err
			}
			if c.cap, err = c.s.Open(port); err != nil {
				return err
			}
			for kind, n := range counts {
				for i := 0; i < n; i++ {
					obj := objName(kind, i)
					t := tuple{obj: obj, msg: &kernel.Msg{Op: "read", Obj: obj}, want: replies[obj]}
					switch kind {
					case opInline:
						cred := nal.Says{P: c.s.Prin(), F: mayRead(obj)}
						t.pf = proof.Assume(0, cred)
						t.creds = []kernel.Credential{{Inline: cred}}
					default:
						// A deny tuple's label vouches for another object,
						// so its proof never discharges the goal.
						said := obj
						if kind == opDeny {
							said = obj + "/elsewhere"
						}
						l, err := c.s.SayFormula(mayRead(said))
						if err != nil {
							return err
						}
						t.pf = proof.Assume(0, l.Formula)
						t.creds = []kernel.Credential{{Ref: &kernel.LabelRef{PID: c.s.PID(), Handle: l.Handle}}}
					}
					c.s.SetProof("read", obj, t.pf, t.creds)
					c.tuples[kind] = append(c.tuples[kind], t)
				}
			}
			c.plan = localPlan(rand.New(rand.NewSource(w.seed*7919+int64(ci))), counts)
		}
		if tr[0] == nil {
			w.k.SetGuard(w.g)
			return nil
		}
		tg := &tracedGuard{g: w.g, tracers: tr}
		for _, c := range w.clients {
			tg.subject = append(tg.subject, c.s.Prin())
		}
		w.k.SetGuard(tg)
		return nil
	})
}

// localPlan draws one client's operation cycle from the mix.
func localPlan(rng *rand.Rand, counts [3]int) []uint32 {
	plan := make([]uint32, planLen)
	for i := range plan {
		u := rng.Intn(100)
		kind := opRebind
		switch {
		case u < pctInline:
			kind = opInline
		case u < pctInline+pctLabel:
			kind = opLabel
		case u < pctInline+pctLabel+pctDeny:
			kind = opDeny
		}
		n := counts[opInline]
		if kind != opRebind {
			n = counts[kind]
		}
		plan[i] = uint32(kind)<<24 | uint32(rng.Intn(n))
	}
	return plan
}

func (w *localMix) op(ci, i int, tr *tracer) error {
	c := w.clients[ci]
	p := c.plan[i%planLen]
	kind, idx := int(p>>24), int(p&(1<<24-1))
	if kind == opRebind {
		t := &c.tuples[opInline][idx]
		h := tr.begin("session.setproof")
		c.s.SetProof("read", t.obj, t.pf, t.creds)
		tr.end(h)
		return nil
	}
	t := &c.tuples[kind][idx]
	h := tr.begin("session.call")
	reply, err := c.s.Call(c.cap, t.msg)
	tr.end(h)
	if kind == opDeny {
		if kernel.ErrnoOf(err) != kernel.EACCES {
			return fmt.Errorf("read %s: want EACCES, got %v", t.obj, err)
		}
		w.denials[ci]++
		return nil
	}
	if err != nil {
		return fmt.Errorf("read %s: %v", t.obj, err)
	}
	if !bytes.Equal(reply, t.want) {
		return fmt.Errorf("read %s: reply %q, want %q", t.obj, reply, t.want)
	}
	return nil
}

func (w *localMix) checks() []error {
	var errs []error
	if err := w.k.Audit().Verify(); err != nil {
		errs = append(errs, fmt.Errorf("audit chain: %v", err))
	}
	return errs
}

func (w *localMix) layerExtra() map[string]float64 { return nil }

func (w *localMix) snapshot() snapshot {
	s := snapshot{serving: w.k.Metrics(), guard: w.g.StatsSnapshot()}
	for _, d := range w.denials {
		s.denials += d
	}
	return s
}
