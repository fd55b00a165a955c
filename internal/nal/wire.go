package nal

import (
	"encoding/binary"
	"errors"
	"time"
)

// This file implements the binary wire codec for formulas, terms, and
// principals, layered directly on the hash-cons DAG. The unit of transfer
// is a *message*: a sequence of node definitions followed by a root
// reference. Each side of a connection keeps a remap table between its
// process-local hash-cons IDs and dense per-connection wire IDs:
//
//   - the encoder sends a node definition the first time a value crosses
//     the connection and a bare wire-ID backreference every time after;
//   - the decoder interns each definition into the local DAG once (via the
//     cons-from-ID helpers, never the text parser) and thereafter resolves
//     backreferences with a single slice index.
//
// Warm decode of an already-seen formula is therefore an intern lookup —
// one varint read and one slice index, zero allocations — which is what
// makes cross-node credential exchange cheap after the first presentation
// (TestWireWarmDecodeZeroAlloc pins this).
//
// Wire IDs are dense, 1-based, and per-kind (formulas, terms, principals
// number independently); a definition implicitly receives the next ID of
// its kind. A malformed stream (unknown opcode, forward reference,
// truncation, oversized count) fails with ErrWireMalformed and leaves the
// decoder tables in a consistent prefix state. Both directions of a
// connection use independent codec pairs; neither end trusts the other's
// numbering beyond the prefix it has already validated.

// Errors returned by the wire codec.
var (
	// ErrConsSaturated reports that the process-wide hash-cons table is at
	// its cap, so the value cannot be assigned a stable handle. Transports
	// surface it; callers may retry with the text form.
	ErrConsSaturated = errors.New("nal: hash-cons table saturated")
	// ErrWireMalformed reports a syntactically invalid wire stream.
	ErrWireMalformed = errors.New("nal: malformed wire stream")
)

// Wire opcodes. A message is defs (in dependency order) then one root.
const (
	wopDefPrin    byte = 1
	wopDefTerm    byte = 2
	wopDefFormula byte = 3
	wopRoot       byte = 4 // formula root reference: ends a formula message
	wopRootPrin   byte = 5 // principal root reference: ends a principal message
)

// WireEncoder is the egress half of one connection's remap state: local
// hash-cons ID → wire ID for every node already sent. Not safe for
// concurrent use; transports serialize sends per connection.
type WireEncoder struct {
	f map[FormulaID]uint32
	t map[TermID]uint32
	p map[PrinID]uint32
}

// NewWireEncoder returns an encoder with empty remap tables.
func NewWireEncoder() *WireEncoder {
	return &WireEncoder{
		f: map[FormulaID]uint32{},
		t: map[TermID]uint32{},
		p: map[PrinID]uint32{},
	}
}

// AppendFormula interns f and appends its wire message to dst. It fails
// only when the hash-cons table is saturated.
func (e *WireEncoder) AppendFormula(dst []byte, f Formula) ([]byte, error) {
	id, ok := IDOf(f)
	if !ok {
		return dst, ErrConsSaturated
	}
	return e.AppendFormulaID(dst, id), nil
}

// AppendFormulaID appends the wire message for an already-interned formula:
// definitions for whatever subgraph the connection has not seen, then the
// root reference. A fully warm formula costs two bytes plus one varint.
func (e *WireEncoder) AppendFormulaID(dst []byte, id FormulaID) []byte {
	dst = e.defFormula(dst, id)
	dst = append(dst, wopRoot)
	return binary.AppendUvarint(dst, uint64(e.f[id]))
}

// AppendPrin interns p and appends its wire message to dst.
func (e *WireEncoder) AppendPrin(dst []byte, p Principal) ([]byte, error) {
	id, ok := IDOfPrin(p)
	if !ok {
		return dst, ErrConsSaturated
	}
	return e.AppendPrinID(dst, id), nil
}

// AppendPrinID appends the wire message for an already-interned principal.
func (e *WireEncoder) AppendPrinID(dst []byte, id PrinID) []byte {
	dst = e.defPrin(dst, id)
	dst = append(dst, wopRootPrin)
	return binary.AppendUvarint(dst, uint64(e.p[id]))
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// defFormula emits definitions for id's subgraph (children first) unless
// the connection has already seen them. Recursion depth is bounded by the
// depth of formulas this process itself built.
func (e *WireEncoder) defFormula(dst []byte, id FormulaID) []byte {
	if _, ok := e.f[id]; ok {
		return dst
	}
	n := FormulaNode(id)
	switch n.Kind {
	case FPred:
		for _, a := range n.Args {
			dst = e.defTerm(dst, a)
		}
	case FSays:
		dst = e.defPrin(dst, n.P)
		dst = e.defFormula(dst, FormulaID(n.L))
	case FSpeaksFor:
		dst = e.defPrin(dst, n.A)
		dst = e.defPrin(dst, n.B)
	case FCompare:
		dst = e.defTerm(dst, TermID(n.L))
		dst = e.defTerm(dst, TermID(n.R))
	case FNot:
		dst = e.defFormula(dst, FormulaID(n.L))
	case FAnd, FOr, FImplies:
		dst = e.defFormula(dst, FormulaID(n.L))
		dst = e.defFormula(dst, FormulaID(n.R))
	}
	dst = append(dst, wopDefFormula, byte(n.Kind))
	switch n.Kind {
	case FPred:
		dst = appendWireString(dst, n.Name)
		dst = binary.AppendUvarint(dst, uint64(len(n.Args)))
		for _, a := range n.Args {
			dst = binary.AppendUvarint(dst, uint64(e.t[a]))
		}
	case FSays:
		dst = binary.AppendUvarint(dst, uint64(e.p[n.P]))
		dst = binary.AppendUvarint(dst, uint64(e.f[FormulaID(n.L)]))
	case FSpeaksFor:
		dst = binary.AppendUvarint(dst, uint64(e.p[n.A]))
		dst = binary.AppendUvarint(dst, uint64(e.p[n.B]))
		if n.HasScope {
			dst = append(dst, 1)
			dst = appendWireString(dst, n.Name)
		} else {
			dst = append(dst, 0)
		}
	case FCompare:
		dst = append(dst, byte(n.Op))
		dst = binary.AppendUvarint(dst, uint64(e.t[TermID(n.L)]))
		dst = binary.AppendUvarint(dst, uint64(e.t[TermID(n.R)]))
	case FNot:
		dst = binary.AppendUvarint(dst, uint64(e.f[FormulaID(n.L)]))
	case FAnd, FOr, FImplies:
		dst = binary.AppendUvarint(dst, uint64(e.f[FormulaID(n.L)]))
		dst = binary.AppendUvarint(dst, uint64(e.f[FormulaID(n.R)]))
	}
	e.f[id] = uint32(len(e.f) + 1)
	return dst
}

func (e *WireEncoder) defTerm(dst []byte, id TermID) []byte {
	if _, ok := e.t[id]; ok {
		return dst
	}
	n := TermNode(id)
	switch n.Kind {
	case TPrin:
		dst = e.defPrin(dst, n.P)
	case TList, TFunc:
		for _, a := range n.Args {
			dst = e.defTerm(dst, a)
		}
	}
	dst = append(dst, wopDefTerm, byte(n.Kind))
	switch n.Kind {
	case TStr, TAtom, TVar:
		dst = appendWireString(dst, n.S)
	case TInt:
		dst = binary.AppendVarint(dst, n.I)
	case TTime:
		ts := n.t.(Time).T
		dst = binary.AppendVarint(dst, ts.Unix())
		dst = binary.AppendUvarint(dst, uint64(ts.Nanosecond()))
	case TPrin:
		dst = binary.AppendUvarint(dst, uint64(e.p[n.P]))
	case TList, TFunc:
		if n.Kind == TFunc {
			dst = appendWireString(dst, n.S)
		}
		dst = binary.AppendUvarint(dst, uint64(len(n.Args)))
		for _, a := range n.Args {
			dst = binary.AppendUvarint(dst, uint64(e.t[a]))
		}
	}
	e.t[id] = uint32(len(e.t) + 1)
	return dst
}

func (e *WireEncoder) defPrin(dst []byte, id PrinID) []byte {
	if _, ok := e.p[id]; ok {
		return dst
	}
	n := PrinNode(id)
	if n.Kind == PSub {
		dst = e.defPrin(dst, n.Parent)
	}
	dst = append(dst, wopDefPrin, byte(n.Kind))
	switch n.Kind {
	case PSub:
		dst = binary.AppendUvarint(dst, uint64(e.p[n.Parent]))
		dst = appendWireString(dst, n.S)
	default:
		dst = appendWireString(dst, n.S)
	}
	e.p[id] = uint32(len(e.p) + 1)
	return dst
}

// WireDecoder is the ingress half of the remap state: wire ID → local
// hash-cons ID for every node the connection has defined. Not safe for
// concurrent use; transports run one ingress loop per connection.
type WireDecoder struct {
	f []FormulaID
	t []TermID
	p []PrinID
}

// NewWireDecoder returns a decoder with empty remap tables.
func NewWireDecoder() *WireDecoder { return &WireDecoder{} }

// wireReader is a bounds-checked cursor over one message.
type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) byte() (byte, bool) {
	if r.off >= len(r.buf) {
		return 0, false
	}
	b := r.buf[r.off]
	r.off++
	return b, true
}

func (r *wireReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, false
	}
	r.off += n
	return v, true
}

func (r *wireReader) varint() (int64, bool) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, false
	}
	r.off += n
	return v, true
}

func (r *wireReader) str() (string, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.buf)-r.off) {
		return "", false
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, true
}

// fRef resolves a formula wire reference read from the stream.
func (d *WireDecoder) fRef(r *wireReader) (FormulaID, bool) {
	v, ok := r.uvarint()
	if !ok || v == 0 || v > uint64(len(d.f)) {
		return 0, false
	}
	return d.f[v-1], true
}

func (d *WireDecoder) tRef(r *wireReader) (TermID, bool) {
	v, ok := r.uvarint()
	if !ok || v == 0 || v > uint64(len(d.t)) {
		return 0, false
	}
	return d.t[v-1], true
}

func (d *WireDecoder) pRef(r *wireReader) (PrinID, bool) {
	v, ok := r.uvarint()
	if !ok || v == 0 || v > uint64(len(d.p)) {
		return 0, false
	}
	return d.p[v-1], true
}

// DecodeFormula decodes one formula message from the front of buf,
// returning the interned handle and the number of bytes consumed.
// Definitions extend the connection's remap tables as a side effect; a
// malformed or truncated message fails without losing previously decoded
// state. The warm path — a message that is a bare root reference — reads
// one opcode and one varint and allocates nothing (pinned by
// TestWireWarmDecodeZeroAlloc; nexuslint checks the static view).
//
//nexus:noalloc
func (d *WireDecoder) DecodeFormula(buf []byte) (FormulaID, int, error) {
	r := wireReader{buf: buf}
	for {
		op, ok := r.byte()
		if !ok {
			return 0, 0, ErrWireMalformed
		}
		switch op {
		case wopRoot:
			id, ok := d.fRef(&r)
			if !ok {
				return 0, 0, ErrWireMalformed
			}
			return id, r.off, nil
		case wopDefFormula:
			if err := d.defFormula(&r); err != nil {
				return 0, 0, err
			}
		case wopDefTerm:
			if err := d.defTerm(&r); err != nil {
				return 0, 0, err
			}
		case wopDefPrin:
			if err := d.defPrin(&r); err != nil {
				return 0, 0, err
			}
		default:
			return 0, 0, ErrWireMalformed
		}
	}
}

// DecodePrin decodes one principal message from the front of buf.
func (d *WireDecoder) DecodePrin(buf []byte) (PrinID, int, error) {
	r := wireReader{buf: buf}
	for {
		op, ok := r.byte()
		if !ok {
			return 0, 0, ErrWireMalformed
		}
		switch op {
		case wopRootPrin:
			id, ok := d.pRef(&r)
			if !ok {
				return 0, 0, ErrWireMalformed
			}
			return id, r.off, nil
		case wopDefTerm:
			if err := d.defTerm(&r); err != nil {
				return 0, 0, err
			}
		case wopDefPrin:
			if err := d.defPrin(&r); err != nil {
				return 0, 0, err
			}
		default:
			return 0, 0, ErrWireMalformed
		}
	}
}

// Definitions intern new nodes and extend the remap tables; the cost is
// paid once per novel subterm on a connection. The noalloc warm path is
// the bare reference case in DecodeFormula.
//
//nexus:alloc-ok
func (d *WireDecoder) defFormula(r *wireReader) error {
	kb, ok := r.byte()
	if !ok {
		return ErrWireMalformed
	}
	var (
		id  FormulaID
		cok bool
	)
	switch FKind(kb) {
	case FTrue:
		id, cok = IDOf(TrueF{})
	case FFalse:
		id, cok = IDOf(FalseF{})
	case FPred:
		name, ok := r.str()
		if !ok {
			return ErrWireMalformed
		}
		n, ok := r.uvarint()
		// Each argument reference costs at least one byte, so the
		// remaining buffer bounds a legitimate count.
		if !ok || n > uint64(len(r.buf)-r.off) {
			return ErrWireMalformed
		}
		ids := make([]TermID, n)
		for i := range ids {
			if ids[i], ok = d.tRef(r); !ok {
				return ErrWireMalformed
			}
		}
		id, cok = consPredIDs(name, ids)
	case FSays:
		p, ok := d.pRef(r)
		if !ok {
			return ErrWireMalformed
		}
		body, ok := d.fRef(r)
		if !ok {
			return ErrWireMalformed
		}
		id, cok = ConsSays(p, body)
	case FSpeaksFor:
		a, ok := d.pRef(r)
		if !ok {
			return ErrWireMalformed
		}
		b, ok := d.pRef(r)
		if !ok {
			return ErrWireMalformed
		}
		flag, ok := r.byte()
		if !ok || flag > 1 {
			return ErrWireMalformed
		}
		scope := ""
		if flag == 1 {
			if scope, ok = r.str(); !ok {
				return ErrWireMalformed
			}
		}
		id, cok = ConsSpeaksFor(a, b, scope, flag == 1)
	case FCompare:
		opb, ok := r.byte()
		if !ok || CompareOp(opb) > OpGT {
			return ErrWireMalformed
		}
		l, ok := d.tRef(r)
		if !ok {
			return ErrWireMalformed
		}
		rt, ok := d.tRef(r)
		if !ok {
			return ErrWireMalformed
		}
		id, cok = consCompareIDs(CompareOp(opb), l, rt)
	case FNot:
		inner, ok := d.fRef(r)
		if !ok {
			return ErrWireMalformed
		}
		id, cok = ConsNot(inner)
	case FAnd, FOr, FImplies:
		l, ok := d.fRef(r)
		if !ok {
			return ErrWireMalformed
		}
		rf, ok := d.fRef(r)
		if !ok {
			return ErrWireMalformed
		}
		switch FKind(kb) {
		case FAnd:
			id, cok = ConsAnd(l, rf)
		case FOr:
			id, cok = ConsOr(l, rf)
		default:
			id, cok = ConsImplies(l, rf)
		}
	default:
		return ErrWireMalformed
	}
	if !cok {
		return ErrConsSaturated
	}
	d.f = append(d.f, id)
	return nil
}

// Definitions intern new nodes and extend the remap tables; the cost is
// paid once per novel subterm on a connection. The noalloc warm path is
// the bare reference case in DecodeFormula.
//
//nexus:alloc-ok
func (d *WireDecoder) defTerm(r *wireReader) error {
	kb, ok := r.byte()
	if !ok {
		return ErrWireMalformed
	}
	var (
		id  TermID
		cok bool
	)
	switch TKind(kb) {
	case TStr, TAtom, TVar:
		s, ok := r.str()
		if !ok {
			return ErrWireMalformed
		}
		switch TKind(kb) {
		case TStr:
			id, cok = IDOfTerm(Str(s))
		case TAtom:
			id, cok = IDOfTerm(Atom(s))
		default:
			id, cok = IDOfTerm(Var(s))
		}
	case TInt:
		v, ok := r.varint()
		if !ok {
			return ErrWireMalformed
		}
		id, cok = IDOfTerm(Int(v))
	case TTime:
		sec, ok := r.varint()
		if !ok {
			return ErrWireMalformed
		}
		nsec, ok := r.uvarint()
		if !ok || nsec >= 1e9 {
			return ErrWireMalformed
		}
		id, cok = IDOfTerm(Time{T: time.Unix(sec, int64(nsec)).UTC()})
	case TPrin:
		p, ok := d.pRef(r)
		if !ok {
			return ErrWireMalformed
		}
		id, cok = consPrinTermID(p)
	case TList, TFunc:
		name := ""
		if TKind(kb) == TFunc {
			if name, ok = r.str(); !ok {
				return ErrWireMalformed
			}
		}
		n, ok := r.uvarint()
		if !ok || n > uint64(len(r.buf)-r.off) {
			return ErrWireMalformed
		}
		ids := make([]TermID, n)
		for i := range ids {
			if ids[i], ok = d.tRef(r); !ok {
				return ErrWireMalformed
			}
		}
		id, cok = consTermArgsIDs(TKind(kb), name, ids)
	default:
		return ErrWireMalformed
	}
	if !cok {
		return ErrConsSaturated
	}
	d.t = append(d.t, id)
	return nil
}

// Definitions intern new nodes and extend the remap tables; the cost is
// paid once per novel subterm on a connection. The noalloc warm path is
// the bare reference case in DecodeFormula.
//
//nexus:alloc-ok
func (d *WireDecoder) defPrin(r *wireReader) error {
	kb, ok := r.byte()
	if !ok {
		return ErrWireMalformed
	}
	var (
		id  PrinID
		cok bool
	)
	switch PKind(kb) {
	case PName, PKey, PHash, PVar:
		s, ok := r.str()
		if !ok {
			return ErrWireMalformed
		}
		switch PKind(kb) {
		case PName:
			id, cok = IDOfPrin(Name(s))
		case PKey:
			id, cok = IDOfPrin(Key(s))
		case PHash:
			id, cok = IDOfPrin(HashPrin(s))
		default:
			id, cok = IDOfPrin(varPrin(s))
		}
	case PSub:
		parent, ok := d.pRef(r)
		if !ok {
			return ErrWireMalformed
		}
		tag, ok := r.str()
		if !ok {
			return ErrWireMalformed
		}
		id, cok = consSubID(parent, tag)
	default:
		return ErrWireMalformed
	}
	if !cok {
		return ErrConsSaturated
	}
	d.p = append(d.p, id)
	return nil
}
