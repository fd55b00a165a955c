package nal

import (
	"fmt"
)

// Formula is a NAL formula. Formulas are immutable values; all operations
// return new formulas. The canonical textual form produced by String is
// parseable by Parse and is used as the hash key for caches.
type Formula interface {
	fmt.Stringer
	// Equal reports structural equality.
	Equal(Formula) bool
	isFormula()
}

// Pred is an application of an uninterpreted predicate to terms, such as
// isTypeSafe(hash:ab12) or openFile("/dir/file"). Predicate symbols carry no
// built-in meaning; third parties introduce them freely (§2.2 of the paper).
type Pred struct {
	Name string
	Args []Term
}

// Says is the belief modality "P says F": F is in the worldview of P.
type Says struct {
	P Principal
	F Formula
}

// SpeaksFor is "A speaksfor B" (On == nil) or the scoped delegation
// "A speaksfor B on pat" (On != nil). With the scope, only statements of A
// matching pat transfer to B.
type SpeaksFor struct {
	A, B Principal
	On   *Pattern
}

// Pattern restricts a scoped delegation. A formula matches the pattern if it
// is a predicate with name Pred, or a comparison whose left term is the atom
// named Pred (so "on TimeNow" admits TimeNow < @2026-03-19).
type Pattern struct {
	Pred string
}

// Compare is an order or equality constraint over terms, such as
// TimeNow < @2026-03-19 or size = 42. Guards cannot decide comparisons that
// mention stateful atoms; those are referred to authorities.
type Compare struct {
	Op   CompareOp
	L, R Term
}

// CompareOp enumerates the comparison operators.
type CompareOp int

// Comparison operators.
const (
	OpLT CompareOp = iota
	OpLE
	OpEQ
	OpNE
	OpGE
	OpGT
)

// Not is constructive negation.
type Not struct{ F Formula }

// And is conjunction.
type And struct{ L, R Formula }

// Or is disjunction.
type Or struct{ L, R Formula }

// Implies is implication.
type Implies struct{ L, R Formula }

// FalseF is the absurd formula. From "A says false" anything in A's
// worldview follows, but nothing in any other principal's (deduction is
// local, §2.1).
type FalseF struct{}

// TrueF is the trivially satisfied formula; the default ALLOW goal.
type TrueF struct{}

func (Pred) isFormula()      {}
func (Says) isFormula()      {}
func (SpeaksFor) isFormula() {}
func (Compare) isFormula()   {}
func (Not) isFormula()       {}
func (And) isFormula()       {}
func (Or) isFormula()        {}
func (Implies) isFormula()   {}
func (FalseF) isFormula()    {}
func (TrueF) isFormula()     {}

func (op CompareOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpGE:
		return ">="
	case OpGT:
		return ">"
	}
	return "?op?"
}

// Eval evaluates the comparison over ground comparable terms.
func (op CompareOp) Eval(sign int) bool {
	switch op {
	case OpLT:
		return sign < 0
	case OpLE:
		return sign <= 0
	case OpEQ:
		return sign == 0
	case OpNE:
		return sign != 0
	case OpGE:
		return sign >= 0
	case OpGT:
		return sign > 0
	}
	return false
}

// The String methods delegate to the canonical encoders in canon.go, which
// render the whole AST into one buffer; binary connectives are
// parenthesized there so the output is unambiguous and reparseable.

func (p Pred) String() string      { return string(AppendFormula(nil, p)) }
func (s Says) String() string      { return string(AppendFormula(nil, s)) }
func (s SpeaksFor) String() string { return string(AppendFormula(nil, s)) }
func (c Compare) String() string   { return string(AppendFormula(nil, c)) }
func (n Not) String() string       { return string(AppendFormula(nil, n)) }
func (a And) String() string       { return string(AppendFormula(nil, a)) }
func (o Or) String() string        { return string(AppendFormula(nil, o)) }
func (i Implies) String() string   { return string(AppendFormula(nil, i)) }
func (FalseF) String() string      { return "false" }
func (TrueF) String() string       { return "true" }

func (p Pred) Equal(o Formula) bool {
	v, ok := o.(Pred)
	if !ok || v.Name != p.Name || len(v.Args) != len(p.Args) {
		return false
	}
	for i := range p.Args {
		if !p.Args[i].EqualTerm(v.Args[i]) {
			return false
		}
	}
	return true
}

func (s Says) Equal(o Formula) bool {
	v, ok := o.(Says)
	return ok && v.P.EqualPrin(s.P) && v.F.Equal(s.F)
}

func (s SpeaksFor) Equal(o Formula) bool {
	v, ok := o.(SpeaksFor)
	if !ok || !v.A.EqualPrin(s.A) || !v.B.EqualPrin(s.B) {
		return false
	}
	if (v.On == nil) != (s.On == nil) {
		return false
	}
	return v.On == nil || v.On.Pred == s.On.Pred
}

func (c Compare) Equal(o Formula) bool {
	v, ok := o.(Compare)
	return ok && v.Op == c.Op && v.L.EqualTerm(c.L) && v.R.EqualTerm(c.R)
}

func (n Not) Equal(o Formula) bool {
	v, ok := o.(Not)
	return ok && v.F.Equal(n.F)
}

func (a And) Equal(o Formula) bool {
	v, ok := o.(And)
	return ok && v.L.Equal(a.L) && v.R.Equal(a.R)
}

func (r Or) Equal(o Formula) bool {
	v, ok := o.(Or)
	return ok && v.L.Equal(r.L) && v.R.Equal(r.R)
}

func (i Implies) Equal(o Formula) bool {
	v, ok := o.(Implies)
	return ok && v.L.Equal(i.L) && v.R.Equal(i.R)
}

func (FalseF) Equal(o Formula) bool { _, ok := o.(FalseF); return ok }
func (TrueF) Equal(o Formula) bool  { _, ok := o.(TrueF); return ok }

// Matches reports whether formula f falls within the pattern's scope:
// a predicate with the pattern's name, a comparison whose left-hand side is
// the atom of that name, or a conjunction of matching formulas.
func (pat Pattern) Matches(f Formula) bool {
	switch v := f.(type) {
	case Pred:
		return v.Name == pat.Pred
	case Compare:
		if a, ok := v.L.(Atom); ok {
			return string(a) == pat.Pred
		}
		return false
	case And:
		return pat.Matches(v.L) && pat.Matches(v.R)
	}
	return false
}

// Conj builds the right-nested conjunction of fs; it returns TrueF for an
// empty list and the single formula unchanged for a singleton.
func Conj(fs ...Formula) Formula {
	switch len(fs) {
	case 0:
		return TrueF{}
	case 1:
		return fs[0]
	}
	return And{L: fs[0], R: Conj(fs[1:]...)}
}

// Conjuncts flattens nested conjunctions into a list.
func Conjuncts(f Formula) []Formula {
	if a, ok := f.(And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Formula{f}
}

// SaysWrap returns P says F, collapsing the idempotent case where F is
// already P says G for the same P (the monad join, valid in NAL).
func SaysWrap(p Principal, f Formula) Formula {
	if s, ok := f.(Says); ok && s.P.EqualPrin(p) {
		return s
	}
	return Says{P: p, F: f}
}
