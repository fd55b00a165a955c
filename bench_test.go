// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one top-level benchmark per exhibit. The last element of each
// sub-benchmark name is the exhibit's column and the rest is its row, so
//
//	go test -run '^$' -bench 'Table1|Fig' -benchmem . | go run ./cmd/experiments
//
// prints each exhibit as a table. Absolute numbers are wall-clock time on
// the simulation rather than cycles on the authors' testbed; the shapes
// (ratios, cache effects, crossovers) are the reproduction target.
//
//	BenchmarkTable1  system call overhead (Nexus bare / Nexus / monolith)
//	BenchmarkFig4    authorization cost by case, ± kernel decision cache
//	BenchmarkFig5    proof evaluation cost vs number of rules
//	BenchmarkFig6    control-operation overhead, system vs crypto labels
//	BenchmarkFig7    interpositioning overhead on a UDP echo path (pkt/s)
//	BenchmarkFig8    Fauxbook throughput vs filesize per mechanism (req/s)
//
// The recorded trajectories are BenchmarkNet, BenchmarkABI, BenchmarkProof
// and BenchmarkLedger (internal/ledger): `make bench-json` runs them and
// cmd/experiments writes their BENCH_<group>.json files.
package nexus

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/fauxbook"
	"repro/internal/fsys"
	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/monolith"
	"repro/internal/nal"
	"repro/internal/nal/proof"
	"repro/internal/netdev"
	"repro/internal/ssr"
	"repro/internal/tpm"
)

// benchKernel boots a kernel for benchmarking, failing the benchmark on
// error.
func benchKernel(b *testing.B, opts kernel.Options) *kernel.Kernel {
	b.Helper()
	t, err := tpm.Manufacture(1024)
	if err != nil {
		b.Fatal(err)
	}
	k, err := kernel.Boot(t, disk.New(), opts)
	if err != nil {
		b.Fatal(err)
	}
	// Exclude the decision audit log (a mutex + SHA-256 per verdict on the
	// miss path) so benchmark trajectories stay comparable across PRs.
	k.Audit().Disable()
	return k
}

// loop runs fn b.N times as the sub-benchmark name.
func loop(b *testing.B, name string, fn func() error) {
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// perSecond reports the benchmark's operation rate in unit.
func perSecond(b *testing.B, unit string) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), unit)
}

// inline wraps formulas as inline credentials.
func inline(fs []nal.Formula) []kernel.Credential {
	creds := make([]kernel.Credential, len(fs))
	for i, f := range fs {
		creds[i] = kernel.Credential{Inline: f}
	}
	return creds
}

// ---------------------------------------------------------------- Table 1

// BenchmarkTable1 is Table 1: rows are calls; columns are Nexus with
// interpositioning off (bare) and on (nexus), the null call denied by an
// interposed monitor (blocked), and the monolithic baseline (monolith).
func BenchmarkTable1(b *testing.B) {
	for _, col := range []string{"bare", "nexus"} {
		k := benchKernel(b, kernel.Options{NoInterposition: col == "bare", NoAuthorization: true})
		p, _ := k.CreateProcess(0, []byte("bench"))
		loop(b, "null/"+col, p.Null)
		loop(b, "getppid/"+col, func() error { _, err := p.GetPPID(); return err })
		loop(b, "gettimeofday/"+col, func() error { _, err := p.GetTimeOfDay(); return err })
		loop(b, "yield/"+col, p.Yield)
	}

	k := benchKernel(b, kernel.Options{NoAuthorization: true})
	p, _ := k.CreateProcess(0, []byte("bench"))
	mon, _ := k.CreateProcess(0, []byte("mon"))
	k.Interpose(mon, 0, kernel.FuncMonitor{
		Call: func(kernel.Caller, *kernel.Msg, []byte) kernel.Verdict {
			return kernel.VerdictBlock
		},
	})
	loop(b, "null/blocked", func() error { p.Null(); return nil })

	m := monolith.New()
	pid := m.Spawn(1)
	loop(b, "null/monolith", func() error { m.Null(); return nil })
	loop(b, "getppid/monolith", func() error { m.GetPPID(pid); return nil })
	loop(b, "gettimeofday/monolith", func() error { m.GetTimeOfDay(); return nil })
	loop(b, "yield/monolith", func() error { m.Yield(); return nil })

	// File operations: the user-level file server over IPC vs in-kernel.
	k = benchKernel(b, kernel.Options{NoAuthorization: true})
	k.SetGuard(guard.New(k))
	fs, err := fsys.New(k)
	if err != nil {
		b.Fatal(err)
	}
	app, _ := k.NewSession([]byte("bench"))
	c, err := fs.ClientFor(app)
	if err != nil {
		b.Fatal(err)
	}
	benchFiles(b, "nexus", c)
	benchFiles(b, "monolith", m)
}

// fileOps is the file half of Table 1.
type fileOps interface {
	Create(path string) error
	Open(path string) (int, error)
	Close(fd int) error
	Read(fd, n int) ([]byte, error)
	Write(fd int, data []byte) (int, error)
}

// benchFiles measures open, close, read and write on /bench through f as
// Table 1 column col.
func benchFiles(b *testing.B, col string, f fileOps) {
	if err := f.Create("/bench"); err != nil {
		b.Fatal(err)
	}
	fd, _ := f.Open("/bench")
	f.Write(fd, []byte("seed data for read benchmark"))
	f.Close(fd)

	b.Run("open/"+col, func(b *testing.B) {
		// Descriptors accumulate and are released outside the timer;
		// per-iteration StopTimer would dominate wall-clock time.
		fds := make([]int, 0, b.N)
		for i := 0; i < b.N; i++ {
			fd, err := f.Open("/bench")
			if err != nil {
				b.Fatal(err)
			}
			fds = append(fds, fd)
		}
		b.StopTimer()
		for _, fd := range fds {
			f.Close(fd)
		}
	})
	b.Run("close/"+col, func(b *testing.B) {
		fds := make([]int, b.N)
		for i := range fds {
			fds[i], _ = f.Open("/bench")
		}
		b.ResetTimer()
		for _, fd := range fds {
			f.Close(fd)
		}
	})
	fd, _ = f.Open("/bench")
	buf := []byte("0123456789abcdef")
	loop(b, "read/"+col, func() error { _, err := f.Read(fd, 16); return err })
	loop(b, "write/"+col, func() error { _, err := f.Write(fd, buf); return err })
}

// ---------------------------------------------------------------- Figure 4

// fig4World wires the standard Figure 4 measurement target: a guarded null
// operation on a server port.
type fig4World struct {
	k    *kernel.Kernel
	g    *guard.Generic
	cli  *kernel.Process
	port *kernel.Port
}

func newFig4World(b *testing.B, cacheOn bool) *fig4World {
	b.Helper()
	k := benchKernel(b, kernel.Options{DisableDecisionCache: !cacheOn})
	g := guard.New(k)
	k.SetGuard(g)
	srv, _ := k.CreateProcess(0, []byte("srv"))
	cli, _ := k.CreateProcess(0, []byte("cli"))
	port, err := k.CreatePort(srv, func(kernel.Caller, *kernel.Msg) ([]byte, error) {
		return nil, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return &fig4World{k: k, g: g, cli: cli, port: port}
}

func (w *fig4World) call() error {
	_, err := w.k.Call(w.cli, w.port.ID, &kernel.Msg{Op: "read", Obj: "obj"})
	return err
}

func (w *fig4World) setGoal(f nal.Formula) { w.k.SetGoal(w.port.Owner, "read", "obj", f, nil) }

func (w *fig4World) setProof(pf *proof.Proof, creds ...kernel.Credential) {
	w.k.SetProof(w.cli, "read", "obj", pf, creds)
}

// BenchmarkFig4 is Figure 4: rows are the guard's decision cases, columns
// the kernel decision cache on and off.
func BenchmarkFig4(b *testing.B) {
	wants := nal.MustParse("?S says wantsAccess")
	clock := nal.MustParse("Clock says ok")
	cases := []struct {
		name  string
		deny  bool
		setup func(w *fig4World)
	}{
		{"syscall", false, func(w *fig4World) { w.k.SetAuthorization(false) }},
		{"nogoal", false, func(w *fig4World) { w.setGoal(nal.TrueF{}) }},
		{"noproof", true, func(w *fig4World) { w.setGoal(wants) }},
		{"notsound", true, func(w *fig4World) {
			w.setGoal(wants)
			bad := nal.MustParse("Other says wantsAccess")
			w.setProof(proof.Assume(0, bad), kernel.Credential{Inline: bad})
		}},
		{"pass", false, func(w *fig4World) {
			w.setGoal(wants)
			cred := nal.Says{P: w.cli.Prin, F: nal.Pred{Name: "wantsAccess"}}
			w.setProof(proof.Assume(0, cred), kernel.Credential{Inline: cred})
		}},
		{"nocred", false, func(w *fig4World) {
			// Credential by labelstore reference: fetched per check.
			w.setGoal(wants)
			l, _ := w.cli.Labels.Say("wantsAccess")
			w.setProof(proof.Assume(0, l.Formula),
				kernel.Credential{Ref: &kernel.LabelRef{PID: w.cli.PID, Handle: l.Handle}})
		}},
		{"embedauth", false, func(w *fig4World) {
			w.setGoal(clock)
			ch := w.g.RegisterEmbedded("clock", func(nal.Formula) bool { return true })
			w.setProof(&proof.Proof{Steps: []proof.Step{{Rule: proof.RuleAuthority, Channel: ch, F: clock}}})
		}},
		{"auth", false, func(w *fig4World) {
			w.setGoal(clock)
			ap, _ := w.k.CreateProcess(0, []byte("authority"))
			a, _ := w.k.RegisterAuthority(ap, func(nal.Formula) bool { return true })
			w.setProof(&proof.Proof{Steps: []proof.Step{{Rule: proof.RuleAuthority, Channel: a.Channel(), F: clock}}})
		}},
	}
	for _, col := range []string{"cache", "nocache"} {
		for _, c := range cases {
			b.Run(c.name+"/"+col, func(b *testing.B) {
				w := newFig4World(b, col == "cache")
				c.setup(w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := w.call(); (err != nil) != c.deny {
						b.Fatalf("deny=%v, got err %v", c.deny, err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------- Figure 5

// fig5Proof builds a proof applying n rules of the given family, returning
// the proof, goal, and credentials.
func fig5Proof(family string, n int) (*proof.Proof, nal.Formula, []nal.Formula) {
	switch family {
	case "negate":
		base := nal.MustParse("a")
		creds := []nal.Formula{base}
		steps := []proof.Step{{Rule: proof.RuleLabel, Label: 0, F: base}}
		cur := base
		for i := 0; i < n; i++ {
			cur = nal.Not{F: nal.Not{F: cur}}
			steps = append(steps, proof.Step{
				Rule: proof.RuleNotNotI, Premises: []int{len(steps) - 1}, F: cur,
			})
		}
		return &proof.Proof{Steps: steps}, cur, creds
	case "boolean":
		base := nal.MustParse("a")
		creds := []nal.Formula{base}
		steps := []proof.Step{{Rule: proof.RuleLabel, Label: 0, F: base}}
		cur := base
		for i := 0; i < n; i++ {
			cur = nal.And{L: base, R: cur}
			steps = append(steps, proof.Step{
				Rule: proof.RuleAndI, Premises: []int{0, len(steps) - 1}, F: cur,
			})
		}
		return &proof.Proof{Steps: steps}, cur, creds
	default: // delegate
		var creds []nal.Formula
		start := nal.Says{P: nal.Name("P0"), F: nal.Pred{Name: "s"}}
		creds = append(creds, start)
		for i := 0; i < n; i++ {
			creds = append(creds, nal.SpeaksFor{
				A: nal.Name(fmt.Sprintf("P%d", i)),
				B: nal.Name(fmt.Sprintf("P%d", i+1)),
			})
		}
		steps := []proof.Step{{Rule: proof.RuleLabel, Label: 0, F: start}}
		cur := nal.Formula(start)
		for i := 0; i < n; i++ {
			sf := creds[i+1]
			steps = append(steps, proof.Step{Rule: proof.RuleLabel, Label: i + 1, F: sf})
			cur = nal.Says{P: nal.Name(fmt.Sprintf("P%d", i+1)), F: nal.Pred{Name: "s"}}
			steps = append(steps, proof.Step{
				Rule:     proof.RuleSpeaksForE,
				Premises: []int{len(steps) - 1, len(steps) - 2},
				F:        cur,
			})
		}
		return &proof.Proof{Steps: steps}, cur, creds
	}
}

// BenchmarkFig5 is Figure 5: rows are proof families by number of rules;
// columns are the proof check alone (eval) and the full guarded call
// (full), run with the kernel decision cache off and the guard's proof
// cache sized to zero so every call re-evaluates the proof.
func BenchmarkFig5(b *testing.B) {
	for _, family := range []string{"delegate", "negate", "boolean"} {
		for _, n := range []int{1, 2, 4, 8, 12, 16, 20} {
			pf, goal, creds := fig5Proof(family, n)
			env := &proof.Env{Credentials: creds}
			row := fmt.Sprintf("%s/rules=%d/", family, n)
			loop(b, row+"eval", func() error { _, err := proof.Check(pf, goal, env); return err })
			w := newFig4World(b, false)
			w.g.SetCacheSize(0)
			w.setGoal(goal)
			w.setProof(pf, inline(creds)...)
			loop(b, row+"full", w.call)
		}
	}
}

// ---------------------------------------------------------------- Figure 6

// BenchmarkFig6 is Figure 6: rows are the objects of control operations,
// columns the operations. cred/pid adds a system-backed label; cred/key
// externalizes it as a signed certificate and imports it back (the
// paper's three-orders-of-magnitude path), cred/verify only imports.
func BenchmarkFig6(b *testing.B) {
	k := benchKernel(b, kernel.Options{})
	k.SetGuard(guard.New(k))
	srv, _ := k.CreateProcess(0, []byte("srv"))
	cli, _ := k.CreateProcess(0, []byte("cli"))
	ap, _ := k.CreateProcess(0, []byte("authority"))
	goal := nal.MustParse("?S says wantsAccess")
	cred := nal.Says{P: cli.Prin, F: nal.Pred{Name: "wantsAccess"}}
	pf := proof.Assume(0, cred)

	loop(b, "auth/add", func() error {
		_, err := k.RegisterAuthority(ap, func(nal.Formula) bool { return true })
		return err
	})
	loop(b, "goal/set", func() error { return k.SetGoal(srv, "read", "obj", goal, nil) })
	loop(b, "goal/clr", func() error { k.ClearGoal(srv, "read", "obj"); return nil })
	loop(b, "proof/set", func() error {
		k.SetProof(cli, "read", "obj", pf, []kernel.Credential{{Inline: cred}})
		return nil
	})
	loop(b, "proof/clr", func() error { k.ClearProof(cli, "read", "obj"); return nil })
	// cred add: a system-backed label insertion must parse and attribute
	// the statement (the most expensive non-crypto control op).
	loop(b, "cred/add", func() error { _, err := cli.Labels.Say(`wantsAccess("obj")`); return err })
	loop(b, "cred/pid", func() error { _, err := cli.Labels.Say("isTypeSafe(hash:ab12)"); return err })
	l, _ := cli.Labels.Say("isTypeSafe(hash:ab12)")
	loop(b, "cred/key", func() error {
		ext, err := cli.Labels.Externalize(l.Handle)
		if err == nil {
			_, err = cli.Labels.Import(ext)
		}
		return err
	})
	ext, err := cli.Labels.Externalize(l.Handle)
	if err != nil {
		b.Fatal(err)
	}
	loop(b, "cred/verify", func() error { _, err := cli.Labels.Import(ext); return err })
}

// ---------------------------------------------------------------- Figure 7

// BenchmarkFig7 is Figure 7: rows are echo-path configurations, columns
// frame sizes, in packets per second.
func BenchmarkFig7(b *testing.B) {
	cases := []struct {
		name string
		cfg  netdev.Config
	}{
		{"kern-int", netdev.Config{}},
		{"user-int", netdev.Config{UserDriver: true}},
		{"kern-drv", netdev.Config{ServerApp: true}},
		{"user-drv", netdev.Config{UserDriver: true, ServerApp: true}},
		{"kref-min", netdev.Config{ServerApp: true, RefMon: netdev.RefKernel, Cache: true}},
		{"kref-max", netdev.Config{ServerApp: true, RefMon: netdev.RefKernel}},
		{"uref-min", netdev.Config{UserDriver: true, ServerApp: true, RefMon: netdev.RefUser, Cache: true}},
		{"uref-max", netdev.Config{UserDriver: true, ServerApp: true, RefMon: netdev.RefUser}},
	}
	for _, size := range []int{100, 1500} {
		frame := netdev.MakeFrame(size)
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/%dB", c.name, size), func(b *testing.B) {
				k := benchKernel(b, kernel.Options{NoAuthorization: true})
				e, err := netdev.NewEchoPath(k, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Process(frame); err != nil {
						b.Fatal(err)
					}
				}
				perSecond(b, "pkt/s")
			})
		}
	}
}

// ---------------------------------------------------------------- Figure 8

// BenchmarkFig8 is Figure 8: rows are static files or the tenant
// interpreter (python) under one mechanism — access control (static,
// dynamic), a reference monitor in the kernel or in user space with or
// without its cache, attested storage (hash, decrypt), or none — and
// columns are file sizes, in requests per second.
func BenchmarkFig8(b *testing.B) {
	variants := []struct {
		name string
		cfg  fauxbook.StackConfig
	}{
		{"none", fauxbook.StackConfig{}},
		{"static", fauxbook.StackConfig{Access: fauxbook.AccessStatic}},
		{"dynamic", fauxbook.StackConfig{Access: fauxbook.AccessDynamic}},
		{"kernel+cache", fauxbook.StackConfig{RefMon: fauxbook.StackRefKernel, RefMonCache: true}},
		{"kernel-cache", fauxbook.StackConfig{RefMon: fauxbook.StackRefKernel}},
		{"user+cache", fauxbook.StackConfig{RefMon: fauxbook.StackRefUser, RefMonCache: true}},
		{"user-cache", fauxbook.StackConfig{RefMon: fauxbook.StackRefUser}},
		{"hash", fauxbook.StackConfig{Storage: fauxbook.StoreHashed}},
		{"decrypt", fauxbook.StackConfig{Storage: fauxbook.StoreEncrypted}},
	}
	sizes := []struct {
		name string
		n    int
	}{{"100B", 100}, {"1kB", 1 << 10}, {"10kB", 10 << 10}, {"100kB", 100 << 10}, {"1MB", 1 << 20}}
	for _, row := range []string{"static-files", "python"} {
		for _, v := range variants {
			cfg := v.cfg
			cfg.Dynamic = row == "python"
			for _, size := range sizes {
				b.Run(row+"/"+v.name+"/"+size.name, func(b *testing.B) {
					w := fig8Stack(b, cfg)
					content := make([]byte, size.n)
					for i := range content {
						content[i] = byte('a' + i%26)
					}
					if err := w.PutFile("/doc", content); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := w.Request("/doc"); err != nil {
							b.Fatal(err)
						}
					}
					perSecond(b, "req/s")
				})
			}
		}
	}
}

func fig8Stack(b *testing.B, cfg fauxbook.StackConfig) *fauxbook.WebStack {
	b.Helper()
	t, err := tpm.Manufacture(1024)
	if err != nil {
		b.Fatal(err)
	}
	t.Extend(tpm.PCRKernel, []byte("nexus"))
	if err := t.TakeOwnership([]tpm.PCRIndex{tpm.PCRKernel}); err != nil {
		b.Fatal(err)
	}
	var mgr *ssr.Manager
	if cfg.Storage != fauxbook.StorePlain {
		if mgr, err = ssr.Init(t, disk.New()); err != nil {
			b.Fatal(err)
		}
	}
	k := benchKernel(b, kernel.Options{})
	w, err := fauxbook.NewWebStack(k, mgr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}
