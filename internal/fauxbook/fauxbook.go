// Package fauxbook implements the paper's flagship application (§4.1): a
// privacy-preserving social network running on the Nexus. Users post and
// read status messages; the social graph gates every data flow; and tenant
// (developer) code manipulates user data only through cobufs, so even the
// application's own developers cannot examine it.
//
// The three guarantees of §4.1 map to code as follows:
//
//	safety        — tenant code passes the sandbox labeling functions
//	                (static import analysis + reflection rewriting) before
//	                the framework will run it
//	confidentiality — user data lives in owner-tagged cobufs; flows are
//	                authorized by the social graph; wall rendering reveals
//	                plaintext only to authenticated friends
//	resources     — the proportional-share scheduler exports reservations
//	                through introspection for resource attestation labels
package fauxbook

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fauxbook/cobuf"
	"repro/internal/fauxbook/sandbox"
	"repro/internal/fsys"
	"repro/internal/kernel"
	"repro/internal/nal"
)

// Errors.
var (
	ErrAuth       = errors.New("fauxbook: authentication failed")
	ErrNoUser     = errors.New("fauxbook: no such user")
	ErrUserExists = errors.New("fauxbook: user exists")
	ErrForbidden  = errors.New("fauxbook: not authorized by social graph")
	ErrBadTenant  = errors.New("fauxbook: tenant code failed certification")
)

// Service is a running Fauxbook instance.
type Service struct {
	k         *kernel.Kernel
	fs        *fsys.Client
	web       *kernel.Session // lighttpd + framework tier
	framework *kernel.Session

	mu       sync.Mutex
	users    map[string]*user
	sessions map[string]string // token → username
	nextTok  int

	// tenant is the certified (analyzed + rewritten) application program
	// the framework dispatches for wall rendering.
	tenant *sandbox.Program
	// tenantLabels are the certification labels produced by the two
	// labeling functions, presented to users as the §4.1 privacy evidence.
	tenantLabels []nal.Formula

	// archive, when attached, is the storage node holding wall archives
	// across the attestation plane (multinode.go).
	archive *remoteArchive

	// sessionAuth and friendAuth are the embedded authorities of §4.1:
	// name.webserver says user=alice, name.python says alice in
	// bob.friends.
	sessionAuth *kernel.Authority
	friendAuth  *kernel.Authority
}

type user struct {
	name     string
	passHash string
	prin     nal.Principal   // prinFor(name), derived once at Signup
	friends  map[string]bool // users whose data this user may see / who may see... see MayFlow
	// wall is written only under Service.mu, and only two ways: Post
	// appends past the current length, and a restore replaces the slice.
	// Neither writes an element a reader already holds, so snapshot hands
	// out the slice itself, not a copy.
	wall []*cobuf.Buf
}

// snapshot returns u's wall for use after Service.mu is released; the
// caller holds the lock. The slice is capped at its length, so appending
// to the snapshot reallocates it instead of writing where Post appends.
func (u *user) snapshot() []*cobuf.Buf {
	return u.wall[:len(u.wall):len(u.wall)]
}

// New deploys Fauxbook on a kernel with a file service. The tenant program
// must pass both labeling functions or deployment fails (§4.1's safety
// guarantee: uncertified developer code never runs).
func New(k *kernel.Kernel, fs *fsys.Server, tenantSrc string) (*Service, error) {
	web, err := k.NewSession([]byte("lighttpd"))
	if err != nil {
		return nil, err
	}
	fw, err := web.Spawn([]byte("web-framework"))
	if err != nil {
		return nil, err
	}
	fsc, err := fs.ClientFor(fw)
	if err != nil {
		return nil, err
	}
	s := &Service{
		k:         k,
		fs:        fsc,
		web:       web,
		framework: fw,
		users:     map[string]*user{},
		sessions:  map[string]string{},
	}

	// Certify the tenant code: analytic then synthetic basis.
	prog, err := sandbox.Parse(tenantSrc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTenant, err)
	}
	legal, err := sandbox.Analyze(prog)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTenant, err)
	}
	rewritten, safe := sandbox.Rewrite(prog)
	s.tenant = rewritten
	analyzer := nal.SubOf(fw.Prin(), "analyzer")
	rewriter := nal.SubOf(fw.Prin(), "rewriter")
	s.tenantLabels = []nal.Formula{
		nal.Says{P: analyzer, F: legal},
		nal.Says{P: rewriter, F: safe},
	}

	// Embedded authorities (§4.1): session identity and friend-file
	// membership, answered over live state.
	s.sessionAuth, err = web.RegisterAuthority(s.answerSession)
	if err != nil {
		return nil, err
	}
	s.friendAuth, err = fw.RegisterAuthority(s.answerFriend)
	if err != nil {
		return nil, err
	}

	if err := s.fs.Mkdir("/fauxbook"); err != nil {
		return nil, err
	}
	return s, nil
}

// TenantLabels returns the certification labels users inspect before
// signing up (published at a well-known URL in the paper).
func (s *Service) TenantLabels() []nal.Formula {
	return append([]nal.Formula(nil), s.tenantLabels...)
}

// SessionAuthority exposes the webserver's identity authority channel.
func (s *Service) SessionAuthority() *kernel.Authority { return s.sessionAuth }

// FriendAuthority exposes the framework's friend-file authority channel.
func (s *Service) FriendAuthority() *kernel.Authority { return s.friendAuth }

// answerSession affirms "webserver says user(token, name)" over live
// session state.
func (s *Service) answerSession(f nal.Formula) bool {
	says, ok := f.(nal.Says)
	if !ok {
		return false
	}
	p, ok := says.F.(nal.Pred)
	if !ok || p.Name != "user" || len(p.Args) != 2 {
		return false
	}
	tok, ok1 := p.Args[0].(nal.Str)
	name, ok2 := p.Args[1].(nal.Str)
	if !ok1 || !ok2 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[string(tok)] == string(name)
}

// answerFriend affirms "framework says friend(a, b)": a is in b's friend
// file, read fresh on every query (§4.1: the authority introspects the
// publicly readable friend file).
func (s *Service) answerFriend(f nal.Formula) bool {
	says, ok := f.(nal.Says)
	if !ok {
		return false
	}
	p, ok := says.F.(nal.Pred)
	if !ok || p.Name != "friend" || len(p.Args) != 2 {
		return false
	}
	a, ok1 := p.Args[0].(nal.Str)
	b, ok2 := p.Args[1].(nal.Str)
	if !ok1 || !ok2 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[string(b)]
	return ok && u.friends[string(a)]
}

// prinFor names a user as a subprincipal of the web server: identity is
// attached at the web-server layer after authentication (§4.1), so tenant
// code cannot forge it.
func (s *Service) prinFor(name string) nal.Principal {
	return nal.SubChain(s.web.Prin(), "user", name)
}

// MayFlow implements cobuf.FlowJudge over the social graph: data owned by
// src may flow to dst iff dst is src or src has listed dst as a friend.
func (s *Service) MayFlow(src, dst nal.Principal) bool {
	sn, ok1 := s.userOf(src)
	dn, ok2 := s.userOf(dst)
	if !ok1 || !ok2 {
		return false
	}
	if sn == dn {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[sn]
	return ok && u.friends[dn]
}

func (s *Service) userOf(p nal.Principal) (string, bool) {
	sub, ok := p.(nal.Sub)
	if !ok {
		return "", false
	}
	parent, ok := sub.Parent.(nal.Sub)
	if !ok || parent.Tag != "user" || !parent.Parent.EqualPrin(s.web.Prin()) {
		return "", false
	}
	return sub.Tag, true
}

// Signup registers a user.
func (s *Service) Signup(name, pass string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[name]; ok {
		return ErrUserExists
	}
	s.users[name] = &user{name: name, passHash: hashPass(name, pass), prin: s.prinFor(name), friends: map[string]bool{}}
	return nil
}

// Login authenticates and returns a session token.
func (s *Service) Login(name, pass string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok || u.passHash != hashPass(name, pass) {
		return "", ErrAuth
	}
	s.nextTok++
	tok := fmt.Sprintf("tok-%d-%s", s.nextTok, hashPass(name, pass)[:8])
	s.sessions[tok] = name
	return tok, nil
}

// Logout invalidates a token; authorities answering over session state see
// the change immediately.
func (s *Service) Logout(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, token)
}

func (s *Service) sessionUser(token string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name, ok := s.sessions[token]
	if !ok {
		return "", ErrAuth
	}
	return name, nil
}

// AddFriend records that owner allows friend to see owner's data: the
// legitimate, user-initiated friend addition generating the speaksfor link
// in the social graph (§4.1).
func (s *Service) AddFriend(token, friend string) error {
	name, err := s.sessionUser(token)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[friend]; !ok {
		return ErrNoUser
	}
	s.users[name].friends[friend] = true
	return nil
}

// Friends lists a user's friend file (publicly readable, like the paper's
// friend files).
func (s *Service) Friends(name string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return nil, ErrNoUser
	}
	out := make([]string, 0, len(u.friends))
	for f := range u.friends {
		out = append(out, f)
	}
	sort.Strings(out)
	return out, nil
}

// Post appends a status message to the author's wall. The owner tag is
// attached here, in the web-server layer, after token authentication —
// tenant code cannot forge cobufs on behalf of a user.
func (s *Service) Post(token string, status []byte) error {
	name, err := s.sessionUser(token)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.users[name]
	u.wall = append(u.wall, cobuf.New(u.prin, status))
	return nil
}

// Wall renders owner's wall for the requesting session by dispatching the
// certified tenant program. The tenant assembles the page out of cobufs it
// cannot read; Reveal discloses plaintext only if the social graph allows
// the flow to the reader.
func (s *Service) Wall(token, owner string) ([]byte, error) {
	readerName, err := s.sessionUser(token)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	u, ok := s.users[owner]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNoUser
	}
	wall := u.snapshot()
	readerPrin := s.users[readerName].prin
	s.mu.Unlock()
	ownerPrin := u.prin

	// The tenant program runs over the wall entries; its store holds the
	// accumulating page, owned by the wall owner.
	env := &sandbox.Env{
		Judge:  s,
		Inputs: map[string]*cobuf.Buf{},
		Store: map[string]*cobuf.Buf{
			"page": cobuf.New(ownerPrin, nil),
		},
	}
	for i, entry := range wall {
		env.Inputs[fmt.Sprintf("status%d", i)] = entry
	}
	env.Inputs["status"] = cobuf.New(ownerPrin, nil)
	if len(wall) > 0 {
		env.Inputs["status"] = wall[len(wall)-1]
	}
	if err := sandbox.Run(s.tenant, env); err != nil {
		return nil, fmt.Errorf("fauxbook: tenant execution: %w", err)
	}

	// Assemble emitted buffers plus the stored page, then reveal to the
	// authenticated reader — the single point where plaintext leaves the
	// cobuf regime, guarded by the social graph.
	var page []byte
	emits := env.Emit
	if pg, ok := env.Store["page"]; ok && pg.Len() > 0 {
		emits = append(emits, pg)
	}
	if len(emits) == 0 {
		// Default rendering: concatenate the wall.
		acc := cobuf.New(ownerPrin, nil)
		for _, entry := range wall {
			acc, err = cobuf.Concat(s, acc, entry)
			if err != nil {
				return nil, err
			}
		}
		emits = []*cobuf.Buf{acc}
	}
	for _, b := range emits {
		plain, err := cobuf.Reveal(s, b, readerPrin)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrForbidden, err)
		}
		page = append(page, plain...)
		page = append(page, '\n')
	}
	return page, nil
}

// PersistWall stores a user's wall into the filesystem through the
// framework's client, keeping cobuf owner tags intact on disk.
func (s *Service) PersistWall(name string) error {
	s.mu.Lock()
	u, ok := s.users[name]
	if !ok {
		s.mu.Unlock()
		return ErrNoUser
	}
	wall := u.snapshot()
	s.mu.Unlock()
	return s.fs.WriteFile("/fauxbook/"+name+".wall", marshalWall(wall))
}

// LoadWall restores a persisted wall.
func (s *Service) LoadWall(name string) error {
	s.mu.Lock()
	u := s.users[name]
	s.mu.Unlock()
	blob, err := s.fs.ReadFile("/fauxbook/" + name + ".wall")
	if err != nil {
		return err
	}
	if u == nil {
		return ErrNoUser
	}
	wall, err := unmarshalWall(blob, u.prin)
	if err != nil {
		return err
	}
	s.mu.Lock()
	u.wall = wall
	s.mu.Unlock()
	return nil
}

// WebPrin returns the web tier's principal.
func (s *Service) WebPrin() nal.Principal { return s.web.Prin() }

// FrameworkPrin returns the framework's principal.
func (s *Service) FrameworkPrin() nal.Principal { return s.framework.Prin() }

func hashPass(name, pass string) string {
	sum := sha256.Sum256([]byte(name + "\x00" + pass))
	return hex.EncodeToString(sum[:])
}

// DefaultTenant is a representative data-independent tenant program: it
// appends the newest status to the page and emits a preview slice. It
// includes a reflection call that the rewriter neutralizes — the program
// would be rejected at runtime without the synthetic step.
const DefaultTenant = `
import social
import render
let latest = input("status")
let page = load("page")
let page2 = concat(page, latest)
store("page", page2)
reflect(latest, "__class__")
`

// EvilTenant attempts the attacks §4.1 defends against: importing outside
// the whitelist. It must be rejected by the analyzer.
const EvilTenant = `
import os
let x = input("status")
emit(x)
`

// TrimTenant emits a fixed-length preview of the newest status —
// demonstrating slice, which never inspects data.
const TrimTenant = `
import render
let latest = input("status")
let head = slice(latest, 0, 5)
emit(head)
`

// CountKeyword would tally posts containing a keyword — inherently
// data-dependent functionality that the cobuf interface cannot express
// (§4.1 notes vote tallying is impossible). It is syntactically invalid in
// the tenant language, and exists to document the boundary.
const CountKeyword = `
let n = count(wall, "keyword")
`
