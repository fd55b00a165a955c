package nal

// Subst maps guard variables to ground terms. Guards build a substitution
// from the access-control tuple (subject, operation, object) and apply it to
// the goal formula before demanding a proof.
type Subst map[Var]Term

// ApplyTerm substitutes variables in a term.
func (s Subst) ApplyTerm(t Term) Term {
	switch v := t.(type) {
	case Var:
		if r, ok := s[v]; ok {
			return r
		}
		return v
	case TermList:
		out := make(TermList, len(v))
		for i, e := range v {
			out[i] = s.ApplyTerm(e)
		}
		return out
	case Func:
		args := make([]Term, len(v.Args))
		for i, e := range v.Args {
			args[i] = s.ApplyTerm(e)
		}
		return Func{Name: v.Name, Args: args}
	case PrinTerm:
		return PrinTerm{P: s.ApplyPrin(v.P)}
	}
	return t
}

// ApplyPrin substitutes variables appearing as principal positions. A
// variable can stand for a principal when the substitution maps it to a
// PrinTerm; Name("?X") forms produced by the parser are resolved here.
func (s Subst) ApplyPrin(p Principal) Principal {
	switch v := p.(type) {
	case varPrin:
		if r, ok := s[Var(v)]; ok {
			if pt, ok := r.(PrinTerm); ok {
				return pt.P
			}
			if a, ok := r.(Atom); ok {
				return Name(a)
			}
		}
		return v
	case Sub:
		return Sub{Parent: s.ApplyPrin(v.Parent), Tag: v.Tag}
	}
	return p
}

// Apply substitutes variables throughout a formula.
func (s Subst) Apply(f Formula) Formula {
	switch v := f.(type) {
	case Pred:
		args := make([]Term, len(v.Args))
		for i, a := range v.Args {
			args[i] = s.ApplyTerm(a)
		}
		return Pred{Name: v.Name, Args: args}
	case Says:
		return Says{P: s.ApplyPrin(v.P), F: s.Apply(v.F)}
	case SpeaksFor:
		return SpeaksFor{A: s.ApplyPrin(v.A), B: s.ApplyPrin(v.B), On: v.On}
	case Compare:
		return Compare{Op: v.Op, L: s.ApplyTerm(v.L), R: s.ApplyTerm(v.R)}
	case Not:
		return Not{F: s.Apply(v.F)}
	case And:
		return And{L: s.Apply(v.L), R: s.Apply(v.R)}
	case Or:
		return Or{L: s.Apply(v.L), R: s.Apply(v.R)}
	case Implies:
		return Implies{L: s.Apply(v.L), R: s.Apply(v.R)}
	}
	return f
}

// EqualBound reports whether f equals goal with the guard variables bound
// by b — f.Equal(b.Subst().Apply(goal)) — without building the
// substitution or the instantiated goal. It binds exactly where Apply
// substitutes, as AppendBound does, and compares a bound value without
// binding inside it; a nil b binds nothing. The guard compares a proof's
// conclusion with its goal this way.
//
// Like the encoders in canon.go, each comparer recurses only into itself.
func EqualBound(f, goal Formula, b *Binding) bool {
	switch g := goal.(type) {
	case Pred:
		v, ok := f.(Pred)
		if !ok || v.Name != g.Name || len(v.Args) != len(g.Args) {
			return false
		}
		for i := range g.Args {
			if !equalBoundTerm(v.Args[i], g.Args[i], b) {
				return false
			}
		}
		return true
	case Says:
		v, ok := f.(Says)
		return ok && equalBoundPrin(v.P, g.P, b) && EqualBound(v.F, g.F, b)
	case SpeaksFor:
		v, ok := f.(SpeaksFor)
		if !ok || !equalBoundPrin(v.A, g.A, b) || !equalBoundPrin(v.B, g.B, b) || (v.On == nil) != (g.On == nil) {
			return false
		}
		return v.On == nil || v.On.Pred == g.On.Pred
	case Compare:
		v, ok := f.(Compare)
		return ok && v.Op == g.Op && equalBoundTerm(v.L, g.L, b) && equalBoundTerm(v.R, g.R, b)
	case Not:
		v, ok := f.(Not)
		return ok && EqualBound(v.F, g.F, b)
	case And:
		v, ok := f.(And)
		return ok && EqualBound(v.L, g.L, b) && EqualBound(v.R, g.R, b)
	case Or:
		v, ok := f.(Or)
		return ok && EqualBound(v.L, g.L, b) && EqualBound(v.R, g.R, b)
	case Implies:
		v, ok := f.(Implies)
		return ok && EqualBound(v.L, g.L, b) && EqualBound(v.R, g.R, b)
	}
	return f.Equal(goal)
}

// equalBoundTerm is EqualBound for a term t against a goal term g.
func equalBoundTerm(t, g Term, b *Binding) bool {
	switch v := g.(type) {
	case Var:
		if b != nil {
			switch v {
			case "S":
				w, ok := t.(PrinTerm)
				return ok && b.Subject.EqualPrin(w.P)
			case "O":
				w, ok := t.(Str)
				return ok && string(w) == b.Obj
			case "Op":
				w, ok := t.(Str)
				return ok && string(w) == b.Op
			}
		}
	case PrinTerm:
		w, ok := t.(PrinTerm)
		return ok && equalBoundPrin(w.P, v.P, b)
	case TermList:
		w, ok := t.(TermList)
		if !ok || len(w) != len(v) {
			return false
		}
		for i := range v {
			if !equalBoundTerm(w[i], v[i], b) {
				return false
			}
		}
		return true
	case Func:
		w, ok := t.(Func)
		if !ok || w.Name != v.Name || len(w.Args) != len(v.Args) {
			return false
		}
		for i := range v.Args {
			if !equalBoundTerm(w.Args[i], v.Args[i], b) {
				return false
			}
		}
		return true
	}
	return t.EqualTerm(g)
}

// equalBoundPrin is EqualBound for a principal p against a goal principal
// g: only ?S binds in principal position.
func equalBoundPrin(p, g Principal, b *Binding) bool {
	switch v := g.(type) {
	case varPrin:
		if b != nil && v == "S" {
			return b.Subject.EqualPrin(p)
		}
	case Sub:
		w, ok := p.(Sub)
		return ok && w.Tag == v.Tag && equalBoundPrin(w.Parent, v.Parent, b)
	}
	return g.EqualPrin(p)
}

// varPrin is a guard variable in principal position, produced by the parser
// for "?X says ..." forms.
type varPrin string

func (varPrin) isPrincipal()     {}
func (v varPrin) String() string { return "?" + string(v) }
func (v varPrin) EqualPrin(o Principal) bool {
	w, ok := o.(varPrin)
	return ok && w == v
}

// VarPrin returns the principal-position guard variable ?name.
func VarPrin(name string) Principal { return varPrin(name) }

// Vars collects the guard variables appearing in f, in first-occurrence
// order.
func Vars(f Formula) []Var {
	var out []Var
	seen := map[Var]bool{}
	add := func(v Var) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walkT func(Term)
	walkT = func(t Term) {
		switch v := t.(type) {
		case Var:
			add(v)
		case TermList:
			for _, e := range v {
				walkT(e)
			}
		case Func:
			for _, e := range v.Args {
				walkT(e)
			}
		case PrinTerm:
			walkP(v.P, add)
		}
	}
	var walk func(Formula)
	walk = func(f Formula) {
		switch v := f.(type) {
		case Pred:
			for _, a := range v.Args {
				walkT(a)
			}
		case Says:
			walkP(v.P, add)
			walk(v.F)
		case SpeaksFor:
			walkP(v.A, add)
			walkP(v.B, add)
		case Compare:
			walkT(v.L)
			walkT(v.R)
		case Not:
			walk(v.F)
		case And:
			walk(v.L)
			walk(v.R)
		case Or:
			walk(v.L)
			walk(v.R)
		case Implies:
			walk(v.L)
			walk(v.R)
		}
	}
	walk(f)
	return out
}

func walkP(p Principal, add func(Var)) {
	switch v := p.(type) {
	case varPrin:
		add(Var(v))
	case Sub:
		walkP(v.Parent, add)
	}
}

// Ground reports whether f contains no guard variables. Proof conclusions
// and labels must be ground.
func Ground(f Formula) bool { return len(Vars(f)) == 0 }
