package fauxbook

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/tpm"
)

func bootStorageNode(t *testing.T, lt *kernel.LoopbackTransport, addr string) (*kernel.Kernel, *kernel.Node, *WallArchive) {
	t.Helper()
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(tp, disk.New(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k.SetGuard(guard.New(k))
	n := kernel.NewNode(k)
	l, err := lt.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	n.Serve(l)
	a, err := DeployWallArchive(k, n, "wallarchive")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return k, n, a
}

// attachedArchive deploys fauxbook on a front node and attaches it, over
// the loopback transport, to a wall archive on a storage node that
// authorizes the front's framework. It returns the service, the storage
// kernel and the archive.
func attachedArchive(t *testing.T, tenant string) (*Service, *kernel.Kernel, *WallArchive) {
	t.Helper()
	front, svc := deploy(t, tenant)
	lt := kernel.NewLoopbackTransport()
	storeK, _, arch := bootStorageNode(t, lt, "store")
	if err := arch.Authorize(front.NKFingerprint(), svc.FrameworkPrin()); err != nil {
		t.Fatal(err)
	}

	nFront := kernel.NewNode(front)
	t.Cleanup(nFront.Close)
	peer, err := nFront.Dial(lt, "store")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachArchive(peer, "wallarchive"); err != nil {
		t.Fatalf("attach: %v", err)
	}
	return svc, storeK, arch
}

// TestMultiNodeArchive is the multi-node workload: the front-end node's
// framework tier archives and restores walls on a storage node with
// credential-backed authorization over the loopback transport.
func TestMultiNodeArchive(t *testing.T) {
	svc, storeK, arch := attachedArchive(t, DefaultTenant)

	// Normal fauxbook activity on the front node.
	if err := svc.Signup("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	tok, err := svc.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Post(tok, []byte("first post")); err != nil {
		t.Fatal(err)
	}

	// Archive crosses nodes; the storage kernel's guard authorized it.
	up0 := storeK.GuardUpcalls()
	if err := svc.ArchiveWall("alice"); err != nil {
		t.Fatalf("archive: %v", err)
	}
	if storeK.GuardUpcalls() == up0 {
		t.Fatal("archive put did not cross the storage kernel's guard")
	}

	// Mutate, then restore the archived state.
	if err := svc.Post(tok, []byte("post-archive noise")); err != nil {
		t.Fatal(err)
	}
	if err := svc.RestoreWall("alice"); err != nil {
		t.Fatalf("restore: %v", err)
	}
	page, err := svc.Wall(tok, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "first post") || strings.Contains(string(page), "noise") {
		t.Fatalf("restored wall wrong: %q", page)
	}
	if puts, gets := arch.Stats(); puts != 1 || gets != 1 {
		t.Fatalf("archive served puts=%d gets=%d, want 1/1", puts, gets)
	}

	// The storage kernel's audit log recorded the cross-node decisions,
	// attributed to the framework's global principal, and the chain holds.
	if err := storeK.Audit().Verify(); err != nil {
		t.Fatalf("storage audit chain: %v", err)
	}
	recs, _ := storeK.Audit().Records()
	found := false
	for _, r := range recs {
		if r.Obj == "/archive/walls" && r.Allow && r.Subj == svc.FrameworkPrin().String() {
			found = true
		}
	}
	if !found {
		t.Fatal("storage audit log has no allow record for the framework's archive access")
	}

	// Every decision is anchored in the storage node's Merkle ledger and
	// provable offline; the last anchored record binds the audit head.
	n, err := arch.VerifyDecisionTrail()
	if err != nil {
		t.Fatalf("decision trail: %v", err)
	}
	if n != len(recs) {
		t.Fatalf("trail proved %d decisions, audit recorded %d", n, len(recs))
	}
	last, ok := arch.Ledger().Record(uint64(n - 1))
	if !ok || last.ChainHash != storeK.Audit().Head() {
		t.Fatal("ledger trail does not bind the storage audit head")
	}
}

// TestMultiNodeArchiveDenied: a node without the credential connects but
// cannot touch the archive — the storage guard denies, and the denial's
// errno class survives the transport.
func TestMultiNodeArchiveDenied(t *testing.T) {
	front, svc := deploy(t, DefaultTenant)
	lt := kernel.NewLoopbackTransport()
	_, _, arch := bootStorageNode(t, lt, "store")
	if err := arch.Authorize(front.NKFingerprint(), svc.FrameworkPrin()); err != nil {
		t.Fatal(err)
	}

	// A rogue kernel with its own node dials in; its sessions have no
	// archive credential.
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		t.Fatal(err)
	}
	rogueK, err := kernel.Boot(tp, disk.New(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nRogue := kernel.NewNode(rogueK)
	t.Cleanup(nRogue.Close)
	peer, err := nRogue.Dial(lt, "store")
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := rogueK.NewSession([]byte("rogue"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := rogue.Connect(peer, "wallarchive")
	if err != nil {
		t.Fatal(err)
	}
	_, err = rogue.CallRemote(c, &kernel.Msg{Op: "get", Obj: "/archive/walls", Args: [][]byte{[]byte("alice")}})
	if !errors.Is(err, kernel.ErrDenied) {
		t.Fatalf("rogue archive access: want ErrDenied, got %v", err)
	}
	if puts, gets := arch.Stats(); puts != 0 || gets != 0 {
		t.Fatalf("rogue access reached the handler: puts=%d gets=%d", puts, gets)
	}
}

// TestAllocArchiveRoundTrip pins a warm archive round trip of an 8-post
// wall over the loopback transport, both kernels included: one
// ArchiveWall and one RestoreWall, 14 allocations. Each request takes
// two (the message with its argument array, and the argument bytes), the
// archive copies the put's blob out of the request frame and replies
// "ok", and the restore decodes the wall in three (entries, pointers and
// one arena for the posts). The rest is the kernels' (response frames,
// the operation string as put and get alternate) and the ledger's. The
// restored wall still renders every post.
func TestAllocArchiveRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("cross-goroutine pool reuse is perturbed under the race detector")
	}
	svc, _, _ := attachedArchive(t, "import render\n")
	if err := svc.Signup("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	tok, err := svc.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 8; i++ {
		post := bytes.Repeat([]byte{byte('a' + i)}, 120)
		if err := svc.Post(tok, post); err != nil {
			t.Fatal(err)
		}
		want = append(want, post...)
	}
	roundTrip := func() {
		if err := svc.ArchiveWall("alice"); err != nil {
			t.Fatal(err)
		}
		if err := svc.RestoreWall("alice"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 14 {
		t.Errorf("warm archive round trip allocates %.1f objects, want ≤ 14", allocs)
	}
	page, err := svc.Wall(tok, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, append(want, '\n')) {
		t.Fatalf("restored wall renders %q, want its 8 posts", page)
	}
}
