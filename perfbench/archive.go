package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/disk"
	"repro/internal/fauxbook"
	"repro/internal/fsys"
	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/ledger"
	"repro/internal/tpm"
)

// fauxbook-archive-tcp: a storage kernel serving fauxbook's wall archive,
// its decisions anchored in a Merkle ledger, and a front kernel running
// fauxbook that calls it over TCP on 127.0.0.1. The connection's whole
// lifecycle is timed too: the attested dial and the credential attach in
// set-up, the close after the checks.
const (
	fbUsers    = 256
	fbPosts    = 8
	fbPostSize = 120
)

// renderTenant has no statements that store or emit, so a wall renders as
// the concatenation of all its posts: the check sees every post.
const renderTenant = "import render\n"

type archiveMix struct {
	seed         int64
	store, front *kernel.Kernel
	guard        *guard.Generic // the storage kernel's
	nStore       *kernel.Node
	nFront       *kernel.Node
	tr           kernel.TCPTransport
	addr         string
	led          *ledger.Ledger
	peer         *kernel.Peer
	svc          *fauxbook.Service
	arch         *fauxbook.WallArchive
	users        []string
	tokens       []string
	pages        [][]byte
	plan         [][]uint32 // per client: kind<<16 | user (kind 0 = archive, 1 = restore)
	issued       [][2]uint64
	loaded       uint64 // archives issued during the data load
	blob         float64
	// baseConns is the live-connection count of both kernels before the
	// dial; closing the peer must return to it.
	baseConns uint64
	// Lifecycle timings in seconds: Dial, AttachArchive, Peer.Close.
	dialS, attachS, closeS float64
	// attachDecodes counts the certificate and formula wire decodes the
	// attach made; the measured window makes none.
	attachDecodes uint64
}

func newArchiveMix(seed int64, clients int) *archiveMix {
	return &archiveMix{seed: seed, plan: make([][]uint32, clients), issued: make([][2]uint64, clients)}
}

func (w *archiveMix) tpms() int { return 2 }

// setup boots both kernels and attaches the storage kernel's guard and
// ledger (delegating ones when server is non-nil, for the traced run). The
// ledger uses the batch size DeployWallArchive would choose.
func (w *archiveMix) setup(st *setupRun, tpms []*tpm.TPM, _ []*tracer, server *serverSpans) error {
	if err := st.step("boot", func() (err error) {
		if w.store, err = kernel.Boot(tpms[0], disk.New(), kernel.Options{Image: []byte("storage-kernel")}); err != nil {
			return err
		}
		if w.front, err = kernel.Boot(tpms[1], disk.New(), kernel.Options{Image: []byte("front-kernel")}); err != nil {
			return err
		}
		w.guard = guard.New(w.store)
		w.front.SetGuard(guard.New(w.front))
		var backend ledger.Backend = ledger.NewMemBackend()
		if server != nil {
			w.store.SetGuard(&tracedGuard{g: w.guard, server: server})
			backend = tracedBackend{Backend: backend, server: server}
		} else {
			w.store.SetGuard(w.guard)
		}
		w.led, err = ledger.New(backend, ledger.Options{BatchSize: 64})
		if err != nil {
			return err
		}
		w.store.AttachLedger(w.led)
		return nil
	}); err != nil {
		return err
	}
	if err := st.step("node", func() error {
		w.nStore = kernel.NewNode(w.store)
		return nil
	}); err != nil {
		return err
	}
	if err := st.step("node", func() error {
		w.nFront = kernel.NewNode(w.front)
		return nil
	}); err != nil {
		return err
	}
	if err := st.step("node", func() error {
		l, err := w.tr.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		w.addr = l.Addr()
		w.nStore.Serve(l)
		return nil
	}); err != nil {
		return err
	}
	if err := st.step("provision", w.provision); err != nil {
		return err
	}
	return st.step("load", w.load)
}

func (w *archiveMix) provision() error {
	var err error
	if w.arch, err = fauxbook.DeployWallArchive(w.store, w.nStore, "wallarchive"); err != nil {
		return err
	}
	fs, err := fsys.New(w.front)
	if err != nil {
		return err
	}
	if w.svc, err = fauxbook.New(w.front, fs, renderTenant); err != nil {
		return err
	}
	if err := w.arch.Authorize(w.front.NKFingerprint(), w.svc.FrameworkPrin()); err != nil {
		return err
	}
	w.baseConns = w.liveConns()
	start := time.Now()
	if w.peer, err = w.nFront.Dial(w.tr, w.addr); err != nil {
		return err
	}
	w.dialS = time.Since(start).Seconds()
	// Label transfer, remote proof binding for put and get, connect.
	decodes := w.wireDecodes()
	start = time.Now()
	if err := w.svc.AttachArchive(w.peer, "wallarchive"); err != nil {
		return err
	}
	w.attachS = time.Since(start).Seconds()
	w.attachDecodes = w.wireDecodes() - decodes
	return nil
}

func (w *archiveMix) wireDecodes() uint64 {
	return w.store.Metrics().WireDecodes + w.front.Metrics().WireDecodes
}

func (w *archiveMix) load() error {
	rng := rand.New(rand.NewSource(w.seed))
	for u := 0; u < fbUsers; u++ {
		name := fmt.Sprintf("user%03d", u)
		pass := fmt.Sprintf("pw-%d-%d", w.seed, u)
		if err := w.svc.Signup(name, pass); err != nil {
			return err
		}
		tok, err := w.svc.Login(name, pass)
		if err != nil {
			return err
		}
		var page []byte
		for i := 0; i < fbPosts; i++ {
			post := make([]byte, fbPostSize)
			for j := range post {
				post[j] = byte('a' + rng.Intn(26))
			}
			if err := w.svc.Post(tok, post); err != nil {
				return err
			}
			page = append(page, post...)
		}
		w.users = append(w.users, name)
		w.tokens = append(w.tokens, tok)
		w.pages = append(w.pages, append(page, '\n'))
	}
	sent := w.front.Metrics().NetSendBytes
	for _, name := range w.users {
		if err := w.svc.ArchiveWall(name); err != nil {
			return err
		}
		w.loaded++
	}
	w.blob = float64(w.front.Metrics().NetSendBytes-sent) / fbUsers
	for c := range w.plan {
		r := rand.New(rand.NewSource(w.seed*7919 + int64(c)))
		w.plan[c] = make([]uint32, planLen)
		for i := range w.plan[c] {
			w.plan[c][i] = uint32(r.Intn(2))<<16 | uint32(r.Intn(fbUsers))
		}
	}
	return nil
}

func (w *archiveMix) op(c, i int, tr *tracer) error {
	p := w.plan[c][i%planLen]
	kind, name := int(p>>16), w.users[p&0xffff]
	w.issued[c][kind]++
	if kind == 0 {
		h := tr.begin("fauxbook.archive")
		err := w.svc.ArchiveWall(name)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("archive %s: %v", name, err)
		}
		return nil
	}
	h := tr.begin("fauxbook.restore")
	err := w.svc.RestoreWall(name)
	tr.end(h)
	if err != nil {
		return fmt.Errorf("restore %s: %v", name, err)
	}
	return nil
}

// checks verifies the storage kernel's audit chain, the ledger, the
// archive's counts and every restored wall, then closes the connection
// and waits for both kernels to tear it down.
func (w *archiveMix) checks() []error {
	var errs []error
	if err := w.store.Audit().Verify(); err != nil {
		errs = append(errs, fmt.Errorf("storage audit chain: %v", err))
	}
	if err := w.led.Flush(); err != nil {
		errs = append(errs, fmt.Errorf("ledger flush: %v", err))
	} else if err := ledger.VerifyAnchors(w.led.Batches(), [32]byte{}); err != nil {
		errs = append(errs, fmt.Errorf("ledger anchors: %v", err))
	}
	if m := w.store.Metrics(); m.LedgerErrors+m.LedgerForwardXErrs != 0 {
		errs = append(errs, fmt.Errorf("ledger: %d backend errors, %d rejected forwards", m.LedgerErrors, m.LedgerForwardXErrs))
	}
	puts, gets := w.arch.Stats()
	wantPuts, wantGets := w.loaded, uint64(0)
	for _, n := range w.issued {
		wantPuts += n[0]
		wantGets += n[1]
	}
	if puts != wantPuts || gets != wantGets {
		errs = append(errs, fmt.Errorf("archive served %d puts and %d gets, clients issued %d and %d", puts, gets, wantPuts, wantGets))
	}
	for u, name := range w.users {
		page, err := w.svc.Wall(w.tokens[u], name)
		if err != nil {
			errs = append(errs, fmt.Errorf("render %s: %v", name, err))
		} else if !bytes.Equal(page, w.pages[u]) {
			errs = append(errs, fmt.Errorf("render %s: restored wall does not hold its %d posts", name, fbPosts))
		}
	}
	start := time.Now()
	w.peer.Close()
	w.closeS = time.Since(start).Seconds()
	if n := w.settledConns(); n != w.baseConns {
		errs = append(errs, fmt.Errorf("live connections after close: %d, baseline %d", n, w.baseConns))
	}
	return errs
}

func (w *archiveMix) liveConns() uint64 {
	return w.store.Metrics().NetLiveConns + w.front.Metrics().NetLiveConns
}

// settledConns waits for both kernels to finish tearing down closed
// connections and returns the live count it settled at.
func (w *archiveMix) settledConns() uint64 {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := w.liveConns()
		if n == w.baseConns || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *archiveMix) snapshot() snapshot {
	return snapshot{serving: w.store.Metrics(), front: w.front.Metrics(), guard: w.guard.StatsSnapshot()}
}

func (w *archiveMix) layerExtra() map[string]float64 {
	return map[string]float64{
		"fauxbook.blob_bytes": w.blob,
		"transport.dial_us":   w.dialS * 1e6,
		"cert.attach_us":      w.attachS * 1e6,
		"transport.close_us":  w.closeS * 1e6,
		"wire.attach_decodes": float64(w.attachDecodes),
	}
}
