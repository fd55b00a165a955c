package fauxbook

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fauxbook/cobuf"
	"repro/internal/kernel"
	"repro/internal/ledger"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// Multi-node Fauxbook (§4.1 at ROADMAP scale): the web/framework tier runs
// on a front-end node and archives user walls to a storage node across the
// attestation plane. The storage node does not trust the network: its
// archive object is goal-protected, and the front-end earns access by
// attesting "framework says mayArchive(walls)" under its TPM-rooted key,
// shipping the credential over the transport, and binding the proof to the
// archive's access tuples. Every archive call then runs the storage
// kernel's standard dispatch pipeline — channel check, guard-backed
// authorization of the front-end's global principal, interposition, audit.

// ErrNoArchive reports archive operations before AttachArchive.
var ErrNoArchive = errors.New("fauxbook: no archive attached")

// archiveObj is the goal-protected object naming the archive store; the
// user whose wall moves travels in the message arguments.
const archiveObj = "/archive/walls"

// WallArchive is the storage-node service: a guarded port storing opaque
// wall blobs by user. Cobuf owner tags stay intact inside the blobs, so
// the §4.1 confidentiality regime survives the hop — the storage node
// holds ciphertext-equivalent buffers it has no authority to reveal.
type WallArchive struct {
	sess *kernel.Session
	led  *ledger.Ledger
	port int

	mu    sync.Mutex
	blobs map[string][]byte
	puts  uint64
	gets  uint64
}

// DeployWallArchive starts the archive service on the storage kernel and
// exports it under the given service name. The caller is responsible for
// installing a default guard on the kernel (the goals set by Authorize
// vector to it). Deployment also anchors the storage kernel's decisions
// into a Merkle ledger (unless one is already attached), so every archive
// authorization — including denials of rogue callers — becomes provable
// offline via VerifyDecisionTrail.
func DeployWallArchive(k *kernel.Kernel, n *kernel.Node, service string) (*WallArchive, error) {
	sess, err := k.NewSession([]byte("wall-archive"))
	if err != nil {
		return nil, err
	}
	a := &WallArchive{sess: sess, blobs: map[string][]byte{}}
	if a.led = k.Ledger(); a.led == nil {
		if a.led, err = ledger.New(ledger.NewMemBackend(), ledger.Options{BatchSize: 64}); err != nil {
			return nil, err
		}
		k.AttachLedger(a.led)
	}
	pc, err := sess.Listen(a.handle)
	if err != nil {
		return nil, err
	}
	if a.port, err = sess.PortOf(pc); err != nil {
		return nil, err
	}
	if err := n.Export(service, a.port); err != nil {
		return nil, err
	}
	return a, nil
}

// Authorize protects the archive with goals demanding the front-end's
// attested credential: key:<frontNK> says (<framework> says
// mayArchive(walls)). Only a subject that registered a proof discharging
// it — which requires the credential to have crossed the transport and
// survived ingress verification — passes the storage kernel's guard.
func (a *WallArchive) Authorize(frontNKFP string, framework nal.Principal) error {
	goal := archiveGoal(frontNKFP, framework)
	for _, op := range []string{"put", "get"} {
		if err := a.sess.SetGoal(op, archiveObj, goal, nil); err != nil {
			return err
		}
	}
	return nil
}

// archiveGoal is the formula both sides agree on: the storage node sets it
// as the goal, the front-end assumes it in its proof.
func archiveGoal(frontNKFP string, framework nal.Principal) nal.Formula {
	return nal.Says{P: nal.Key(frontNKFP), F: nal.Says{
		P: framework,
		F: nal.Pred{Name: "mayArchive", Args: []nal.Term{nal.Atom("walls")}},
	}}
}

// Port returns the archive's public port id on the storage kernel.
func (a *WallArchive) Port() int { return a.port }

// Ledger returns the decision ledger anchored behind the storage kernel's
// audit log.
func (a *WallArchive) Ledger() *ledger.Ledger { return a.led }

// VerifyDecisionTrail seals the pending window and offline-verifies every
// anchored decision of the storage kernel: the anchor chain must hold and
// each record must prove against its batch root. It returns the number of
// decisions verified — the storage operator's answer to "show me, without
// trusting your kernel, what it authorized".
func (a *WallArchive) VerifyDecisionTrail() (int, error) {
	if err := a.led.Flush(); err != nil {
		return 0, err
	}
	batches := a.led.Batches()
	if err := ledger.VerifyAnchors(batches, [32]byte{}); err != nil {
		return 0, err
	}
	n := 0
	for _, b := range batches {
		for seq := b.FirstSeq; seq <= b.LastSeq; seq++ {
			r, ok := a.led.Record(seq)
			if !ok {
				return n, fmt.Errorf("fauxbook: anchored decision %d missing", seq)
			}
			p, err := a.led.Prove(seq)
			if err != nil {
				return n, err
			}
			if err := ledger.VerifyInclusion(&r, p); err != nil {
				return n, fmt.Errorf("fauxbook: decision %d: %w", seq, err)
			}
			n++
		}
	}
	return n, nil
}

// Stats reports served puts and gets.
func (a *WallArchive) Stats() (puts, gets uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.puts, a.gets
}

func (a *WallArchive) handle(from kernel.Caller, m *kernel.Msg) ([]byte, error) {
	if m.Obj != archiveObj || len(m.Args) < 1 {
		return nil, fmt.Errorf("fauxbook: archive: bad request")
	}
	user := string(m.Args[0])
	switch m.Op {
	case "put":
		if len(m.Args) != 2 {
			return nil, fmt.Errorf("fauxbook: archive: put needs a blob")
		}
		blob := append([]byte(nil), m.Args[1]...)
		a.mu.Lock()
		a.blobs[user] = blob
		a.puts++
		a.mu.Unlock()
		return []byte("ok"), nil
	case "get":
		a.mu.Lock()
		blob, ok := a.blobs[user]
		a.gets++
		a.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("fauxbook: archive: no wall for %s", user)
		}
		return blob, nil
	}
	return nil, fmt.Errorf("fauxbook: archive: unknown op %s", m.Op)
}

// remoteArchive is the front-end's handle to an attached archive.
type remoteArchive struct {
	peer *kernel.Peer
	cap  kernel.Cap
}

// AttachArchive connects this service's framework tier to a wall-archive
// service on a peer node and provisions the credential path: the framework
// utters mayArchive(walls), the label is externalized under this node's
// TPM-rooted key and transferred to the storage node (which verifies it
// through its pre-verification cache), and the proof is bound remotely to
// the archive's put/get tuples. After Attach, ArchiveWall and RestoreWall
// are credential-backed cross-node calls.
func (s *Service) AttachArchive(peer *kernel.Peer, service string) error {
	cred := nal.Pred{Name: "mayArchive", Args: []nal.Term{nal.Atom("walls")}}
	lbl, err := s.framework.SayFormula(cred)
	if err != nil {
		return err
	}
	rl, err := s.framework.TransferLabelRemote(peer, lbl.Handle)
	if err != nil {
		return fmt.Errorf("fauxbook: archive credential transfer: %w", err)
	}
	goal := archiveGoal(s.k.NKFingerprint(), s.framework.Prin())
	pf := proof.Assume(0, goal)
	creds := []kernel.RemoteCred{{Ref: rl.Handle}}
	for _, op := range []string{"put", "get"} {
		if err := s.framework.SetProofRemote(peer, op, archiveObj, pf, creds); err != nil {
			return fmt.Errorf("fauxbook: remote proof registration: %w", err)
		}
	}
	c, err := s.framework.Connect(peer, service)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.archive = &remoteArchive{peer: peer, cap: c}
	s.mu.Unlock()
	return nil
}

// marshalWall flattens wall entries into the length-prefixed blob format
// shared by filesystem persistence and the remote archive.
func marshalWall(wall []*cobuf.Buf) []byte {
	size := 0
	for _, b := range wall {
		size += 2 + cobuf.MarshalSize(b)
	}
	blob := make([]byte, 0, size)
	for _, b := range wall {
		m := cobuf.MarshalSize(b)
		blob = append(blob, byte(m>>8), byte(m))
		blob = cobuf.AppendMarshal(blob, b)
	}
	return blob
}

// unmarshalWall parses the blob format back into wall entries. The blob
// may come from a storage node the front kernel does not trust: malformed
// bytes are an error, never a panic. Consecutive entries with the same
// owner tag share one parse.
func unmarshalWall(blob []byte) ([]*cobuf.Buf, error) {
	var wall []*cobuf.Buf
	var dec cobuf.Decoder
	for len(blob) >= 2 {
		n := int(blob[0])<<8 | int(blob[1])
		if len(blob) < 2+n {
			return nil, fmt.Errorf("fauxbook: corrupt wall blob")
		}
		b, err := dec.Unmarshal(blob[2 : 2+n])
		if err != nil {
			return nil, err
		}
		wall = append(wall, b)
		blob = blob[2+n:]
	}
	return wall, nil
}

// ArchiveWall ships a user's wall to the attached storage node. The blob
// crosses the transport opaque; authorization happens on the storage
// kernel against the framework's credential-backed proof.
func (s *Service) ArchiveWall(name string) error {
	s.mu.Lock()
	ar := s.archive
	u, ok := s.users[name]
	var wall []*cobuf.Buf
	if ok {
		wall = append([]*cobuf.Buf(nil), u.wall...)
	}
	s.mu.Unlock()
	if ar == nil {
		return ErrNoArchive
	}
	if !ok {
		return ErrNoUser
	}
	_, err := s.framework.CallRemote(ar.cap, &kernel.Msg{
		Op:   "put",
		Obj:  archiveObj,
		Args: [][]byte{[]byte(name), marshalWall(wall)},
	})
	return err
}

// RestoreWall replaces a user's wall with the archived copy.
func (s *Service) RestoreWall(name string) error {
	s.mu.Lock()
	ar := s.archive
	s.mu.Unlock()
	if ar == nil {
		return ErrNoArchive
	}
	blob, err := s.framework.CallRemote(ar.cap, &kernel.Msg{
		Op:   "get",
		Obj:  archiveObj,
		Args: [][]byte{[]byte(name)},
	})
	if err != nil {
		return err
	}
	wall, err := unmarshalWall(blob)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return ErrNoUser
	}
	u.wall = wall
	return nil
}
