package nal

import (
	"strconv"
	"sync"
	"time"
)

// This file implements the canonical-key machinery that keeps AST
// serialization off the authorization hot path. Every formula, term, and
// principal has a canonical byte form — exactly the concrete syntax printed
// by String and accepted by Parse — and a cheap structural 64-bit hash
// computed without allocating. KeyOf and KeyOfPrin memoize the canonical
// form in a sharded intern table, so guards and caches that key on a
// formula pay the serialization cost once per distinct value instead of
// once per request (§2.8–§2.9 of the paper rely on exactly this
// amortization).
//
// The String methods in formula.go, term.go, principal.go, and subst.go all
// delegate to the appendX encoders below, so the canonical form cannot
// drift from the printed form. The same encoders render a guard goal with
// its variables bound (AppendBound), so a key built from a bound goal
// cannot drift from the instantiated goal's canonical form either.

// ---------------------------------------------------------------- encoders

// AppendFormula appends the canonical form of f (identical to f.String())
// to dst and returns the extended slice.
func AppendFormula(dst []byte, f Formula) []byte { return appendFormula(dst, f, nil, false) }

// Binding gives the guard variables ?S, ?O and ?Op the values a guard
// substitutes for one access (§2.5): the subject, the object and the
// operation.
type Binding struct {
	Subject Principal
	Obj, Op string
}

// Subst returns the substitution b stands for.
func (b *Binding) Subst() Subst {
	return Subst{"S": PrinTerm{P: b.Subject}, "O": Str(b.Obj), "Op": Str(b.Op)}
}

// AppendBound appends the canonical form of f with the guard variables
// bound by b — byte for byte AppendFormula(dst, b.Subst().Apply(f)) —
// without building the instantiated formula. A nil b binds nothing.
func AppendBound(dst []byte, f Formula, b *Binding) []byte {
	return appendFormula(dst, f, b, false)
}

// The encoders thread a binding b (nil for a plain render) through the
// walk and bind exactly where Subst.Apply substitutes: a term-position ?S,
// ?O or ?Op, and a principal-position ?S (a principal position takes only
// a principal value, and ?O and ?Op bind to strings). A bound value is
// rendered unbound, as Apply does not substitute inside it.
//
// Each encoder recurses only into itself, never around a cycle of
// functions: Go's escape analysis moves a buffer passed around such a
// cycle to the heap, and the guard renders its keys into a stack buffer.

// appendFormula appends f's canonical form. Operands of says, not and the
// binary connectives are rendered with wrap set, which parenthesizes a
// binary connective so the output is unambiguous and reparseable.
func appendFormula(dst []byte, f Formula, b *Binding, wrap bool) []byte {
	if wrap {
		switch f.(type) {
		case And, Or, Implies:
			dst = append(dst, '(')
			dst = appendFormula(dst, f, b, false)
			dst = append(dst, ')')
			return dst
		}
	}
	switch v := f.(type) {
	case Pred:
		dst = append(dst, v.Name...)
		if len(v.Args) > 0 {
			dst = append(dst, '(')
			for i, a := range v.Args {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = appendTerm(dst, a, b)
			}
			dst = append(dst, ')')
		}
	case Says:
		dst = appendPrin(dst, v.P, b)
		dst = append(dst, " says "...)
		dst = appendFormula(dst, v.F, b, true)
	case SpeaksFor:
		dst = appendPrin(dst, v.A, b)
		dst = append(dst, " speaksfor "...)
		dst = appendPrin(dst, v.B, b)
		if v.On != nil {
			dst = append(dst, " on "...)
			dst = append(dst, v.On.Pred...)
		}
	case Compare:
		dst = appendTerm(dst, v.L, b)
		dst = append(dst, ' ')
		dst = append(dst, v.Op.String()...)
		dst = append(dst, ' ')
		dst = appendTerm(dst, v.R, b)
	case Not:
		dst = append(dst, "not "...)
		dst = appendFormula(dst, v.F, b, true)
	case And:
		dst = appendFormula(dst, v.L, b, true)
		dst = append(dst, " and "...)
		dst = appendFormula(dst, v.R, b, true)
	case Or:
		dst = appendFormula(dst, v.L, b, true)
		dst = append(dst, " or "...)
		dst = appendFormula(dst, v.R, b, true)
	case Implies:
		dst = appendFormula(dst, v.L, b, true)
		dst = append(dst, " => "...)
		dst = appendFormula(dst, v.R, b, true)
	case FalseF:
		dst = append(dst, "false"...)
	case TrueF:
		dst = append(dst, "true"...)
	default:
		panic("nal: unknown formula type in canonical encoder")
	}
	return dst
}

func appendTerm(dst []byte, t Term, b *Binding) []byte {
	switch v := t.(type) {
	case Str:
		dst = strconv.AppendQuote(dst, string(v))
	case Int:
		dst = strconv.AppendInt(dst, int64(v), 10)
	case Time:
		dst = append(dst, '@')
		dst = appendTimeValue(dst, v.T)
	case Atom:
		dst = append(dst, v...)
	case Var:
		if b != nil {
			switch v {
			case "S":
				return appendPrin(dst, b.Subject, nil)
			case "O":
				return strconv.AppendQuote(dst, b.Obj)
			case "Op":
				return strconv.AppendQuote(dst, b.Op)
			}
		}
		dst = append(dst, '?')
		dst = append(dst, v...)
	case PrinTerm:
		dst = appendPrin(dst, v.P, b)
	case TermList:
		dst = append(dst, '[')
		for i, e := range v {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendTerm(dst, e, b)
		}
		dst = append(dst, ']')
	case Func:
		dst = append(dst, v.Name...)
		dst = append(dst, '(')
		for i, e := range v.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendTerm(dst, e, b)
		}
		dst = append(dst, ')')
	default:
		panic("nal: unknown term type in canonical encoder")
	}
	return dst
}

// appendTimeValue renders a timestamp in UTC so that (a) reparsing yields
// the same instant and (b) Equal Time terms — equality is by instant —
// always produce identical canonical text, keeping String injective on
// formula equality classes. UTC midnights use the short date form;
// fractional seconds are preserved via RFC 3339 with nanoseconds.
func appendTimeValue(dst []byte, t time.Time) []byte {
	t = t.UTC()
	h, m, s := t.Clock()
	if h == 0 && m == 0 && s == 0 && t.Nanosecond() == 0 {
		return t.AppendFormat(dst, "2006-01-02")
	}
	return t.AppendFormat(dst, time.RFC3339Nano)
}

func appendPrin(dst []byte, p Principal, b *Binding) []byte {
	switch v := p.(type) {
	case Name:
		dst = append(dst, v...)
	case Key:
		dst = append(dst, "key:"...)
		dst = append(dst, v...)
	case HashPrin:
		dst = append(dst, "hash:"...)
		dst = append(dst, v...)
	case Sub:
		dst = appendPrin(dst, v.Parent, b)
		dst = append(dst, '.')
		dst = append(dst, v.Tag...)
	case varPrin:
		if b != nil && v == "S" {
			return appendPrin(dst, b.Subject, nil)
		}
		dst = append(dst, '?')
		dst = append(dst, v...)
	default:
		panic("nal: unknown principal type in canonical encoder")
	}
	return dst
}

// ---------------------------------------------------------------- hashing

// fnv64 is a streaming FNV-1a hash used for the structural hashes below; it
// exists so that hashing an AST allocates nothing.
type fnv64 uint64

const (
	fnvOffset fnv64 = 14695981039346656037
	fnvPrime  fnv64 = 1099511628211
)

func (h fnv64) byte(b byte) fnv64 { return (h ^ fnv64(b)) * fnvPrime }
func (h fnv64) str(s string) fnv64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64(s[i])) * fnvPrime
	}
	return h
}

// Per-node tag bytes keep the structural hash injective across node kinds
// (e.g. Pred("a") vs Atom("a")); raw strings are terminated with a 0 byte so
// adjacent fields cannot alias.
const (
	tagPred byte = iota + 1
	tagSays
	tagSpeaksFor
	tagCompare
	tagNot
	tagAnd
	tagOr
	tagImplies
	tagFalse
	tagTrue
	tagStr
	tagInt
	tagTime
	tagAtom
	tagVar
	tagPrinTerm
	tagList
	tagFunc
	tagName
	tagKey
	tagHash
	tagSub
	tagVarPrin
)

// Hash64 returns a structural 64-bit hash of f: equal formulas hash equal,
// and the walk performs no allocation. It is the fast first step of KeyOf.
func Hash64(f Formula) uint64 { return uint64(hashFormula(fnvOffset, f)) }

// HashString returns the FNV-1a hash of a plain string with the same
// parameters as the structural hashes, for callers (e.g. the guard's cache
// sharding) that key on canonical strings.
func HashString(s string) uint64 { return uint64(fnvOffset.str(s)) }

// HashBytes is HashString over a byte slice: HashBytes(b) equals
// HashString(string(b)), without the conversion.
func HashBytes(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h = h.byte(c)
	}
	return uint64(h)
}

// Hash64Prin is Hash64 for principals.
func Hash64Prin(p Principal) uint64 { return uint64(hashPrin(fnvOffset, p)) }

func hashFormula(h fnv64, f Formula) fnv64 {
	switch v := f.(type) {
	case Pred:
		h = h.byte(tagPred).str(v.Name).byte(0)
		for _, a := range v.Args {
			h = hashTerm(h, a)
		}
	case Says:
		h = hashPrin(h.byte(tagSays), v.P)
		h = hashFormula(h, v.F)
	case SpeaksFor:
		h = hashPrin(h.byte(tagSpeaksFor), v.A)
		h = hashPrin(h, v.B)
		if v.On != nil {
			h = h.str(v.On.Pred)
		}
		h = h.byte(0)
	case Compare:
		h = h.byte(tagCompare).byte(byte(v.Op))
		h = hashTerm(h, v.L)
		h = hashTerm(h, v.R)
	case Not:
		h = hashFormula(h.byte(tagNot), v.F)
	case And:
		h = hashFormula(h.byte(tagAnd), v.L)
		h = hashFormula(h, v.R)
	case Or:
		h = hashFormula(h.byte(tagOr), v.L)
		h = hashFormula(h, v.R)
	case Implies:
		h = hashFormula(h.byte(tagImplies), v.L)
		h = hashFormula(h, v.R)
	case FalseF:
		h = h.byte(tagFalse)
	case TrueF:
		h = h.byte(tagTrue)
	}
	return h
}

func hashTerm(h fnv64, t Term) fnv64 {
	switch v := t.(type) {
	case Str:
		h = h.byte(tagStr).str(string(v)).byte(0)
	case Int:
		h = h.byte(tagInt)
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h = h.byte(byte(u >> (8 * i)))
		}
	case Time:
		h = h.byte(tagTime)
		u := uint64(v.T.UnixNano())
		for i := 0; i < 8; i++ {
			h = h.byte(byte(u >> (8 * i)))
		}
	case Atom:
		h = h.byte(tagAtom).str(string(v)).byte(0)
	case Var:
		h = h.byte(tagVar).str(string(v)).byte(0)
	case PrinTerm:
		h = hashPrin(h.byte(tagPrinTerm), v.P)
	case TermList:
		h = h.byte(tagList)
		for _, e := range v {
			h = hashTerm(h, e)
		}
		h = h.byte(0)
	case Func:
		h = h.byte(tagFunc).str(v.Name).byte(0)
		for _, a := range v.Args {
			h = hashTerm(h, a)
		}
	}
	return h
}

func hashPrin(h fnv64, p Principal) fnv64 {
	switch v := p.(type) {
	case Name:
		h = h.byte(tagName).str(string(v)).byte(0)
	case Key:
		h = h.byte(tagKey).str(string(v)).byte(0)
	case HashPrin:
		h = h.byte(tagHash).str(string(v)).byte(0)
	case Sub:
		h = hashPrin(h.byte(tagSub), v.Parent).str(v.Tag).byte(0)
	case varPrin:
		h = h.byte(tagVarPrin).str(string(v)).byte(0)
	}
	return h
}

// Note: hashTerm hashes Time by instant (UnixNano), matching both Time
// equality (time.Time.Equal) and the canonical text, which renders in UTC.
// Equal formulas therefore always share hash and canonical string.

// ------------------------------------------------------------- interning

// The intern tables memoize hash → (value, canonical string) with per-shard
// read/write locks. Shard count is a power of two so selection is a mask;
// per-shard entry caps bound worst-case memory against adversarial streams
// of distinct formulas (an uncached KeyOf still returns the right string,
// it just pays the encoder).
const (
	internShards   = 64
	internShardCap = 4096
)

type internShard[T any] struct {
	mu sync.RWMutex
	m  map[uint64][]internEntry[T]
	n  int // total entries across buckets (hash collisions share a bucket)
}

type internEntry[T any] struct {
	v T
	s string
}

type internTable[T any] struct {
	shards [internShards]internShard[T]
	eq     func(a, b T) bool
	enc    func(dst []byte, v T) []byte
}

func (t *internTable[T]) key(h uint64, v T) string {
	sh := &t.shards[h&(internShards-1)]
	sh.mu.RLock()
	for _, e := range sh.m[h] {
		if t.eq(e.v, v) {
			sh.mu.RUnlock()
			return e.s
		}
	}
	sh.mu.RUnlock()

	s := string(t.enc(nil, v))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, e := range sh.m[h] {
		if t.eq(e.v, v) {
			return e.s
		}
	}
	if sh.m == nil {
		sh.m = map[uint64][]internEntry[T]{}
	}
	// The cap bounds total entries, not distinct hashes: colliding Hash64
	// values share a bucket, and an attacker-crafted collision stream must
	// not grow one bucket without bound.
	if sh.n < internShardCap {
		sh.m[h] = append(sh.m[h], internEntry[T]{v: v, s: s})
		sh.n++
	}
	return s
}

var (
	formulaTab = &internTable[Formula]{
		eq:  func(a, b Formula) bool { return a.Equal(b) },
		enc: AppendFormula,
	}
	prinTab = &internTable[Principal]{
		eq:  func(a, b Principal) bool { return a.EqualPrin(b) },
		enc: func(dst []byte, p Principal) []byte { return appendPrin(dst, p, nil) },
	}
)

// KeyOf returns the canonical key of f: a string identical to f.String(),
// interned so that repeated calls for structurally equal formulas return a
// shared string without re-serializing the AST. Structurally equal
// formulas always print identically (Time terms render in UTC), so the key
// is a pure function of the equality class whether or not the intern table
// retains it. Formulas are immutable values, so interning them is safe.
// Use this instead of String whenever the result keys a map or feeds a
// hash.
func KeyOf(f Formula) string {
	return formulaTab.key(Hash64(f), f)
}

// KeyOfPrin is KeyOf for principals.
func KeyOfPrin(p Principal) string {
	return prinTab.key(Hash64Prin(p), p)
}
