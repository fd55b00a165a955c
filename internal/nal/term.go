package nal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Term is a first-order term appearing as a predicate argument or on either
// side of a comparison. Terms are immutable values.
type Term interface {
	fmt.Stringer
	// EqualTerm reports structural equality.
	EqualTerm(Term) bool
	isTerm()
}

// Str is a string constant term, written "like this" in the concrete syntax.
type Str string

// Int is an integer constant term.
type Int int64

// Time is a timestamp term, written as an RFC 3339 date or date-time prefixed
// with '@' in the concrete syntax (e.g. @2026-03-19).
type Time struct{ T time.Time }

// Atom is a symbolic constant, such as TimeNow, /proc/ipd/12, or alice.
// Atoms have no interpretation inside the logic; authorities and labeling
// functions give them meaning.
type Atom string

// Var is a guard variable, written ?X in the concrete syntax. Goal formulas
// contain variables that the guard instantiates (e.g. with the subject of the
// access) before demanding a proof; proofs themselves must be ground.
type Var string

// PrinTerm embeds a principal in term position, so that predicates may speak
// about principals (e.g. hasPath(/proc/ipd/12, Filesystem) names processes).
type PrinTerm struct{ P Principal }

// TermList is a finite list term, written [t1, t2, ...].
type TermList []Term

// Func is an uninterpreted function application in term position, such as
// quota(alice). Like predicate symbols, function symbols carry no built-in
// meaning; authorities evaluate them.
type Func struct {
	Name string
	Args []Term
}

func (Str) isTerm()      {}
func (Int) isTerm()      {}
func (Time) isTerm()     {}
func (Atom) isTerm()     {}
func (Var) isTerm()      {}
func (PrinTerm) isTerm() {}
func (TermList) isTerm() {}
func (Func) isTerm()     {}

func (f Func) String() string { return string(appendTerm(nil, f, nil)) }

func (f Func) EqualTerm(o Term) bool {
	v, ok := o.(Func)
	if !ok || v.Name != f.Name || len(v.Args) != len(f.Args) {
		return false
	}
	for i := range f.Args {
		if !f.Args[i].EqualTerm(v.Args[i]) {
			return false
		}
	}
	return true
}

func (s Str) String() string  { return strconv.Quote(string(s)) }
func (i Int) String() string  { return strconv.FormatInt(int64(i), 10) }
func (a Atom) String() string { return string(a) }
func (v Var) String() string  { return "?" + string(v) }

// Time renders as the short date form only when that form reparses to the
// same instant (UTC-offset midnight with no sub-second part); otherwise RFC
// 3339 with nanoseconds. See appendTimeValue in canon.go.
func (t Time) String() string { return string(appendTerm(nil, t, nil)) }

func (p PrinTerm) String() string { return p.P.String() }

func (l TermList) String() string { return string(appendTerm(nil, l, nil)) }

func (s Str) EqualTerm(o Term) bool { v, ok := o.(Str); return ok && v == s }
func (i Int) EqualTerm(o Term) bool { v, ok := o.(Int); return ok && v == i }
func (a Atom) EqualTerm(o Term) bool {
	v, ok := o.(Atom)
	return ok && v == a
}
func (v Var) EqualTerm(o Term) bool { w, ok := o.(Var); return ok && w == v }

func (t Time) EqualTerm(o Term) bool {
	v, ok := o.(Time)
	return ok && v.T.Equal(t.T)
}

func (p PrinTerm) EqualTerm(o Term) bool {
	v, ok := o.(PrinTerm)
	return ok && v.P.EqualPrin(p.P)
}

func (l TermList) EqualTerm(o Term) bool {
	v, ok := o.(TermList)
	if !ok || len(v) != len(l) {
		return false
	}
	for i := range l {
		if !l[i].EqualTerm(v[i]) {
			return false
		}
	}
	return true
}

// CompareTerms orders two ground terms of the same kind. It returns the sign
// of l-r and false if the terms are incomparable (different kinds, or kinds
// without an order). Guards and embedded authorities use this to evaluate
// comparison formulas such as TimeNow < @2026-03-19 after the left side has
// been replaced with a concrete value.
func CompareTerms(l, r Term) (int, bool) {
	switch a := l.(type) {
	case Int:
		if b, ok := r.(Int); ok {
			switch {
			case a < b:
				return -1, true
			case a > b:
				return 1, true
			}
			return 0, true
		}
	case Str:
		if b, ok := r.(Str); ok {
			return strings.Compare(string(a), string(b)), true
		}
	case Time:
		if b, ok := r.(Time); ok {
			switch {
			case a.T.Before(b.T):
				return -1, true
			case a.T.After(b.T):
				return 1, true
			}
			return 0, true
		}
	case Atom:
		if b, ok := r.(Atom); ok {
			return strings.Compare(string(a), string(b)), true
		}
	}
	return 0, false
}

// SortTerms sorts a slice of terms by their canonical string form, giving a
// deterministic order for externalization and hashing.
func SortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].String() < ts[j].String() })
}
