// Package cobuf implements constrained buffers (§4.1): owner-tagged opaque
// byte arrays that untrusted tenant code can store, retrieve, concatenate,
// and slice — but never examine. The interface deliberately has no
// data-dependent operations (no compare, no index-of, no byte access), so it
// is not Turing-complete over the protected data; like homomorphic
// encryption, it permits work on data without revealing it, but with
// language-level access control instead of cryptography.
//
// Every cobuf carries the principal that owns its contents, attached at the
// web-server layer after authentication. Collation is allowed only when the
// recipient buffer's owner speaks for the source buffer's owner, which in
// Fauxbook means a friend edge exists in the social graph.
package cobuf

import (
	"bytes"
	"errors"

	"repro/internal/nal"
)

// Errors.
var (
	// ErrFlow is returned when an operation would move data to a principal
	// that the owner has not authorized.
	ErrFlow   = errors.New("cobuf: information flow not authorized")
	ErrBounds = errors.New("cobuf: slice out of range")
)

// FlowJudge decides whether data owned by src may flow to a buffer owned by
// dst — in Fauxbook, whether dst speaksfor src by a friend edge or dst is
// src. Implementations must not expose buffer contents.
type FlowJudge interface {
	MayFlow(src, dst nal.Principal) bool
}

// Buf is a constrained buffer. The data field is unexported: code outside
// this package (tenant code) cannot reach the bytes.
type Buf struct {
	owner nal.Principal
	tag   string // owner's canonical form (nal.KeyOfPrin), as AppendMarshal stores it
	data  []byte
}

// New creates a buffer owned by owner. Only trusted layers (the web server
// after authentication) call New with user data.
func New(owner nal.Principal, data []byte) *Buf {
	return &Buf{owner: owner, tag: nal.KeyOfPrin(owner), data: append([]byte(nil), data...)}
}

// Owner returns the buffer's owning principal. The owner tag is public;
// only the contents are protected.
func (b *Buf) Owner() nal.Principal { return b.owner }

// Len returns the buffer length. Length is deliberately exposed: the paper's
// interface supports slicing, which requires it.
func (b *Buf) Len() int { return len(b.data) }

// Slice returns a new buffer with the same owner covering [from, to).
func (b *Buf) Slice(from, to int) (*Buf, error) {
	if from < 0 || to < from || to > len(b.data) {
		return nil, ErrBounds
	}
	return &Buf{owner: b.owner, tag: b.tag, data: append([]byte(nil), b.data[from:to]...)}, nil
}

// Concat appends src's contents to dst, checking the flow policy: the
// destination owner must be authorized to receive the source's data.
// The result is owned by dst's owner.
func Concat(judge FlowJudge, dst, src *Buf) (*Buf, error) {
	if !dst.owner.EqualPrin(src.owner) && (judge == nil || !judge.MayFlow(src.owner, dst.owner)) {
		return nil, ErrFlow
	}
	out := &Buf{owner: dst.owner, tag: dst.tag, data: make([]byte, 0, len(dst.data)+len(src.data))}
	out.data = append(out.data, dst.data...)
	out.data = append(out.data, src.data...)
	return out, nil
}

// Reveal extracts the plaintext for delivery to a reader principal,
// subject to the flow policy. The web server calls this only when rendering
// a page to an authenticated session.
func Reveal(judge FlowJudge, b *Buf, reader nal.Principal) ([]byte, error) {
	if !b.owner.EqualPrin(reader) && (judge == nil || !judge.MayFlow(b.owner, reader)) {
		return nil, ErrFlow
	}
	return append([]byte(nil), b.data...), nil
}

// Retag transfers ownership; only the current owner's side may do this, so
// the judge must confirm the flow. Used when a user shares a post to a
// friend's wall.
func Retag(judge FlowJudge, b *Buf, to nal.Principal) (*Buf, error) {
	if !b.owner.EqualPrin(to) && (judge == nil || !judge.MayFlow(b.owner, to)) {
		return nil, ErrFlow
	}
	return &Buf{owner: to, tag: nal.KeyOfPrin(to), data: append([]byte(nil), b.data...)}, nil
}

// AppendMarshal appends the stored form of b — a 2-byte length, the
// owner tag, then the data — to dst, for storage in the filesystem. The
// stored form is opaque to tenant code, which only handles handles.
func AppendMarshal(dst []byte, b *Buf) []byte {
	dst = append(dst, byte(len(b.tag)>>8), byte(len(b.tag)))
	dst = append(dst, b.tag...)
	return append(dst, b.data...)
}

// MarshalSize reports the length of b's stored form.
func MarshalSize(b *Buf) int { return 2 + len(b.tag) + len(b.data) }

// A Decoder unmarshals a run of stored buffers, parsing an owner tag only
// when its bytes differ from the previous buffer's: a run written by one
// owner parses its tag once, and every distinct tag is still validated.
// The zero value is ready to use. A Decoder keeps a reference to the last
// tag it parsed, so it is meant to live only as long as one decoding pass.
type Decoder struct {
	raw   []byte // the last parsed tag's bytes, aliasing the caller's input
	owner nal.Principal
	tag   string
}

// Unmarshal reverses AppendMarshal.
func (d *Decoder) Unmarshal(raw []byte) (*Buf, error) {
	if len(raw) < 2 {
		return nil, ErrBounds
	}
	n := int(raw[0])<<8 | int(raw[1])
	if len(raw) < 2+n {
		return nil, ErrBounds
	}
	if tag := raw[2 : 2+n]; d.owner == nil || !bytes.Equal(tag, d.raw) {
		owner, err := nal.ParsePrincipal(string(tag))
		if err != nil {
			return nil, err
		}
		d.raw, d.owner, d.tag = tag, owner, nal.KeyOfPrin(owner)
	}
	return &Buf{owner: d.owner, tag: d.tag, data: append([]byte(nil), raw[2+n:]...)}, nil
}
