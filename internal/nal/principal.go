package nal

import (
	"fmt"
	"strings"
)

// Principal identifies an entity to which statements can be attributed: a
// named service, a cryptographic key, a program hash, or a subprincipal of
// another principal. Principals are immutable values.
type Principal interface {
	fmt.Stringer
	// EqualPrin reports structural equality.
	EqualPrin(Principal) bool
	isPrincipal()
}

// Name is a free-standing named principal such as NTP or /proc/ipd/12.
// Names are given meaning by the statements that mention them; the logic
// itself treats them as opaque.
type Name string

// Key is a principal identified by the fingerprint (hex digest) of a public
// key. A statement by Key(f) is one signed by, or attributable over a secure
// channel to, the holder of the matching private key. Written key:f.
type Key string

// HashPrin is a principal identified by the launch-time hash of a program
// image, written hash:digest. Hash principals are the axiomatic basis for
// trust that logical attestation generalizes.
type HashPrin string

// Sub is the subprincipal P.Tag. The parent P speaks for P.Tag axiomatically:
// a kernel speaks for the processes it implements, the TPM's key speaks for
// the kernels it measures, and so on.
type Sub struct {
	Parent Principal
	Tag    string
}

func (Name) isPrincipal()     {}
func (Key) isPrincipal()      {}
func (HashPrin) isPrincipal() {}
func (Sub) isPrincipal()      {}

func (n Name) String() string     { return string(n) }
func (k Key) String() string      { return "key:" + string(k) }
func (h HashPrin) String() string { return "hash:" + string(h) }

func (s Sub) String() string { return string(appendPrin(nil, s, nil)) }

func (n Name) EqualPrin(o Principal) bool { v, ok := o.(Name); return ok && v == n }
func (k Key) EqualPrin(o Principal) bool  { v, ok := o.(Key); return ok && v == k }
func (h HashPrin) EqualPrin(o Principal) bool {
	v, ok := o.(HashPrin)
	return ok && v == h
}

func (s Sub) EqualPrin(o Principal) bool {
	v, ok := o.(Sub)
	return ok && v.Tag == s.Tag && v.Parent.EqualPrin(s.Parent)
}

// SubOf returns the subprincipal parent.tag.
func SubOf(parent Principal, tag string) Sub { return Sub{Parent: parent, Tag: tag} }

// SubChain builds parent.t1.t2...tn.
func SubChain(parent Principal, tags ...string) Principal {
	p := parent
	for _, t := range tags {
		p = Sub{Parent: p, Tag: t}
	}
	return p
}

// IsAncestor reports whether a is a (proper or improper) prefix of b in the
// subprincipal hierarchy; i.e. b is a or a subprincipal of a subprincipal
// ... of a. Because parents speak for their subprincipals, IsAncestor(a, b)
// implies a speaksfor b.
func IsAncestor(a, b Principal) bool {
	for {
		if a.EqualPrin(b) {
			return true
		}
		s, ok := b.(Sub)
		if !ok {
			return false
		}
		b = s.Parent
	}
}

// RootOf returns the outermost parent of a subprincipal chain (the principal
// itself when it is not a Sub). The Nexus attaches resource quotas to the
// root of a process tree.
func RootOf(p Principal) Principal {
	for {
		s, ok := p.(Sub)
		if !ok {
			return p
		}
		p = s.Parent
	}
}

// PrinDepth returns the number of subprincipal links in p.
func PrinDepth(p Principal) int {
	d := 0
	for {
		s, ok := p.(Sub)
		if !ok {
			return d
		}
		d++
		p = s.Parent
	}
}

// ParsePrincipalString is a convenience wrapper around ParsePrincipal that
// panics on malformed input. It is intended for principal literals in tests
// and examples.
func MustPrincipal(s string) Principal {
	p, err := ParsePrincipal(s)
	if err != nil {
		panic("nal: bad principal literal " + strings.TrimSpace(s) + ": " + err.Error())
	}
	return p
}
