package proof

import (
	"errors"
	"fmt"
	"strconv"
	"unsafe"

	"repro/internal/nal"
)

// Env supplies the checker with everything outside the proof itself.
type Env struct {
	// Credentials are the authenticated labels the client presented. The
	// guard has already verified their provenance (labelstore channel or
	// certificate signature); the checker only matches formulas.
	Credentials []nal.Formula
	// Authority validates a RuleAuthority step by querying the live
	// authority listening on the named channel. A nil Authority rejects all
	// authority steps. Answers are valid only for this invocation and are
	// never cached across checks (§2.7).
	Authority func(channel string, f nal.Formula) bool
	// TrustRoots are principals whose delegation statements (handoffs) are
	// accepted even for principals they do not own — the trust preamble of
	// the goal formula (§2.5). Typically the Nexus kernel principal.
	TrustRoots []nal.Principal
	// CredentialIDs optionally carries the hash-cons handles of Credentials,
	// position for position. Callers that hold credentials long-term (the
	// kernel proof store) precompute them once so the compiled checker skips
	// per-call interning; when the lengths disagree the field is ignored.
	CredentialIDs []nal.FormulaID
}

func (e *Env) trusted(p nal.Principal) bool {
	for _, r := range e.TrustRoots {
		if nal.IsAncestor(r, p) {
			return true
		}
	}
	return false
}

// Result reports the outcome of a successful check.
type Result struct {
	// Cacheable is true when the proof references no dynamic system state
	// (no authority steps), so the decision may enter the kernel decision
	// cache (§2.8).
	Cacheable bool
	// AuthorityCalls counts live authority consultations performed.
	AuthorityCalls int
	// Steps is the total number of rule applications checked.
	Steps int
	// Consulted lists, in order, the consultations whose authority
	// affirmed the statement: on success every authority step of the
	// proof, which is what a cached proof must re-validate (§2.9). It is
	// nil for a proof without authority steps.
	Consulted []Consultation
}

// Consultation is one authority step a check consulted: the channel asked
// and the statement it affirmed.
type Consultation struct {
	Channel string
	F       nal.Formula
}

// Common checker errors.
var (
	ErrUnsound    = errors.New("proof: unsound step")
	ErrNoCred     = errors.New("proof: missing credential")
	ErrAuthority  = errors.New("proof: authority denied or unavailable")
	ErrWrongGoal  = errors.New("proof: conclusion does not discharge goal")
	ErrEmptyProof = errors.New("proof: empty proof")
)

// wrongGoalError is ErrWrongGoal with the conclusion and goal that
// differed.
type wrongGoalError struct{ msg string }

func (e *wrongGoalError) Error() string { return e.msg }
func (e *wrongGoalError) Unwrap() error { return ErrWrongGoal }

// errWrongGoal reports that a proof concluded concl where the goal, bound
// by b, demanded something else. Its text is byte for byte
// fmt.Errorf("%w: proved %q, goal %q", ErrWrongGoal, concl, instantiated
// goal): %q of a Stringer is strconv.AppendQuote of its String(). Both
// canonical forms are rendered into one stack buffer, the goal bound in
// place, and quoted from it, so a denial allocates the message and the
// error, and more only when the forms outgrow the buffer.
//
//nexus:alloc-ok
func errWrongGoal(concl, goal nal.Formula, b *nal.Binding) error {
	var buf [512]byte
	forms := nal.AppendFormula(buf[:0], concl)
	n := len(forms)
	forms = nal.AppendBound(forms, goal, b)
	// The views alias forms, which nothing writes while they are read:
	// msg appends past its end, or into a new array once it is full.
	proved := unsafe.String(unsafe.SliceData(forms), n)
	want := unsafe.String(unsafe.SliceData(forms[n:]), len(forms)-n)
	msg := append(forms[len(forms):], ErrWrongGoal.Error()...)
	msg = append(msg, ": proved "...)
	msg = strconv.AppendQuote(msg, proved)
	msg = append(msg, ", goal "...)
	msg = strconv.AppendQuote(msg, want)
	return &wrongGoalError{msg: string(msg)}
}

// Check validates the proof and confirms that its conclusion equals goal.
// Checking is total: it runs in time linear in proof size regardless of
// input. On success the Result reports cacheability.
//
// Check routes through the compiled representation (Compile): formulas are
// resolved to hash-consed IDs once per proof, every equality in the step
// checks is an integer compare, and pure rule applications are memoized
// across requests. Proofs the compiler rejects — and any proof once the
// hash-cons table saturates — take the structural path below, which is the
// semantic reference.
func Check(p *Proof, goal nal.Formula, env *Env) (Result, error) {
	return CheckBound(p, goal, nil, env)
}

// CheckBound is Check against goal with its guard variables bound by b:
// the proof must conclude b.Subst().Apply(goal). The compiled path
// compares the conclusion with goal binding in place (nal.EqualBound) and
// builds neither the substitution nor the instantiated goal; the
// structural path instantiates. A nil b binds nothing.
func CheckBound(p *Proof, goal nal.Formula, b *nal.Binding, env *Env) (Result, error) {
	if p == nil || len(p.Steps) == 0 {
		return Result{}, ErrEmptyProof
	}
	c, err := p.Compiled()
	if err != nil { //nexus:coldpath — a proof the compiler rejects, or a saturated cons table
		if b != nil {
			goal = b.Subst().Apply(goal)
		}
		return checkText(p, goal, env)
	}
	return c.CheckBound(goal, b, env)
}

// CheckStructural validates the proof with the structural (AST-equality)
// reference checker, bypassing compilation and the memo. The ablation
// benchmarks use it as the seed baseline; the fuzzer differentially tests
// the compiled checker against it.
func CheckStructural(p *Proof, goal nal.Formula, env *Env) (Result, error) {
	return checkText(p, goal, env)
}

// checkText is the structural (AST-equality) checker: the reference
// implementation the compiled checker is differentially fuzzed against, and
// the fallback when compilation is unavailable.
func checkText(p *Proof, goal nal.Formula, env *Env) (Result, error) {
	var res Result
	if p == nil || len(p.Steps) == 0 {
		return res, ErrEmptyProof
	}
	if env == nil {
		env = &Env{}
	}
	if err := checkFrame(p.Steps, nil, env, &res); err != nil {
		return res, err
	}
	if !p.Conclusion().Equal(goal) {
		return res, errWrongGoal(p.Conclusion(), goal, nil)
	}
	res.Cacheable = res.AuthorityCalls == 0
	return res, nil
}

// checkFrame validates a step sequence. hyp is the local hypothesis (premise
// index -1) inside a subproof, nil at top level.
func checkFrame(steps []Step, hyp nal.Formula, env *Env, res *Result) error {
	prem := func(i int, at int) (nal.Formula, error) {
		if i == -1 {
			if hyp == nil {
				return nil, fmt.Errorf("%w: step %d references hypothesis outside subproof", ErrUnsound, at)
			}
			return hyp, nil
		}
		if i < 0 || i >= at {
			return nil, fmt.Errorf("%w: step %d references out-of-range premise %d", ErrUnsound, at, i)
		}
		return steps[i].F, nil
	}
	for at, s := range steps {
		res.Steps++
		if s.F == nil {
			return fmt.Errorf("%w: step %d has no conclusion", ErrUnsound, at)
		}
		if !nal.Ground(s.F) {
			return fmt.Errorf("%w: step %d conclusion %q is not ground", ErrUnsound, at, s.F)
		}
		ps := make([]nal.Formula, len(s.Premises))
		for j, i := range s.Premises {
			f, err := prem(i, at)
			if err != nil {
				return err
			}
			ps[j] = f
		}
		if err := checkStep(s, ps, env, res); err != nil {
			return fmt.Errorf("step %d (%s): %w", at, s.Rule, err)
		}
	}
	return nil
}

func checkStep(s Step, ps []nal.Formula, env *Env, res *Result) error {
	need := func(n int) error {
		if len(ps) != n {
			return fmt.Errorf("%w: expected %d premises, have %d", ErrUnsound, n, len(ps))
		}
		return nil
	}
	switch s.Rule {
	case RuleLabel:
		if s.Label < 0 || s.Label >= len(env.Credentials) {
			return fmt.Errorf("%w: credential #%d not supplied", ErrNoCred, s.Label)
		}
		if !env.Credentials[s.Label].Equal(s.F) {
			return fmt.Errorf("%w: credential #%d is %q, step claims %q",
				ErrNoCred, s.Label, env.Credentials[s.Label], s.F)
		}
		return nil

	case RuleAuthority:
		res.AuthorityCalls++
		if env.Authority == nil || !env.Authority(s.Channel, s.F) {
			return fmt.Errorf("%w: channel %q, statement %q", ErrAuthority, s.Channel, s.F)
		}
		res.Consulted = append(res.Consulted, Consultation{Channel: s.Channel, F: s.F})
		return nil

	case RuleSubPrin:
		sf, ok := s.F.(nal.SpeaksFor)
		if !ok || sf.On != nil {
			return fmt.Errorf("%w: subprin must conclude unscoped speaksfor", ErrUnsound)
		}
		if sf.A.EqualPrin(sf.B) || !nal.IsAncestor(sf.A, sf.B) {
			return fmt.Errorf("%w: %s is not a proper ancestor of %s", ErrUnsound, sf.A, sf.B)
		}
		return nil

	case RuleTrueI:
		if _, ok := s.F.(nal.TrueF); !ok {
			return fmt.Errorf("%w: true-i must conclude true", ErrUnsound)
		}
		return nil

	case RuleCompare:
		c, ok := s.F.(nal.Compare)
		if !ok {
			return fmt.Errorf("%w: compare must conclude a comparison", ErrUnsound)
		}
		if !constTerm(c.L) || !constTerm(c.R) {
			return fmt.Errorf("%w: comparison %q mentions non-constant terms (use an authority)", ErrUnsound, c)
		}
		sign, ok := nal.CompareTerms(c.L, c.R)
		if !ok || !c.Op.Eval(sign) {
			return fmt.Errorf("%w: comparison %q does not hold", ErrUnsound, c)
		}
		return nil

	case RuleSaysUnit:
		if err := need(1); err != nil {
			return err
		}
		sy, ok := s.F.(nal.Says)
		if !ok || !sy.F.Equal(ps[0]) {
			return fmt.Errorf("%w: says-unit must wrap the premise", ErrUnsound)
		}
		return nil

	case RuleSaysJoin:
		if err := need(1); err != nil {
			return err
		}
		outer, ok := ps[0].(nal.Says)
		if !ok {
			return fmt.Errorf("%w: says-join premise must be P says P says S", ErrUnsound)
		}
		inner, ok := outer.F.(nal.Says)
		if !ok || !inner.P.EqualPrin(outer.P) {
			return fmt.Errorf("%w: says-join premise must be P says P says S", ErrUnsound)
		}
		if !s.F.Equal(nal.Says{P: outer.P, F: inner.F}) {
			return fmt.Errorf("%w: says-join conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleSaysImpE:
		if err := need(2); err != nil {
			return err
		}
		impSays, ok := ps[0].(nal.Says)
		if !ok {
			return fmt.Errorf("%w: says-imp-e first premise must be P says (S => T)", ErrUnsound)
		}
		imp, ok := impSays.F.(nal.Implies)
		if !ok {
			return fmt.Errorf("%w: says-imp-e first premise must contain an implication", ErrUnsound)
		}
		argSays, ok := ps[1].(nal.Says)
		if !ok || !argSays.P.EqualPrin(impSays.P) || !argSays.F.Equal(imp.L) {
			return fmt.Errorf("%w: says-imp-e second premise must be P says S", ErrUnsound)
		}
		if !s.F.Equal(nal.Says{P: impSays.P, F: imp.R}) {
			return fmt.Errorf("%w: says-imp-e conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleSpeaksForE:
		if err := need(2); err != nil {
			return err
		}
		sf, ok := ps[0].(nal.SpeaksFor)
		if !ok {
			return fmt.Errorf("%w: speaksfor-e first premise must be a speaksfor", ErrUnsound)
		}
		sy, ok := ps[1].(nal.Says)
		if !ok || !sy.P.EqualPrin(sf.A) {
			return fmt.Errorf("%w: speaksfor-e second premise must be A says S", ErrUnsound)
		}
		if sf.On != nil && !sf.On.Matches(sy.F) {
			return fmt.Errorf("%w: statement %q outside delegation scope %q", ErrUnsound, sy.F, sf.On.Pred)
		}
		if !s.F.Equal(nal.Says{P: sf.B, F: sy.F}) {
			return fmt.Errorf("%w: speaksfor-e conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleSpeaksForTrans:
		if err := need(2); err != nil {
			return err
		}
		ab, ok1 := ps[0].(nal.SpeaksFor)
		bc, ok2 := ps[1].(nal.SpeaksFor)
		if !ok1 || !ok2 || !ab.B.EqualPrin(bc.A) {
			return fmt.Errorf("%w: speaksfor-t premises must chain", ErrUnsound)
		}
		if bc.On != nil {
			return fmt.Errorf("%w: speaksfor-t second premise must be unscoped", ErrUnsound)
		}
		want := nal.SpeaksFor{A: ab.A, B: bc.B, On: ab.On}
		if !s.F.Equal(want) {
			return fmt.Errorf("%w: speaksfor-t conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleHandoff:
		if err := need(1); err != nil {
			return err
		}
		sy, ok := ps[0].(nal.Says)
		if !ok {
			return fmt.Errorf("%w: handoff premise must be C says (A speaksfor B)", ErrUnsound)
		}
		sf, ok := sy.F.(nal.SpeaksFor)
		if !ok {
			return fmt.Errorf("%w: handoff premise must contain a speaksfor", ErrUnsound)
		}
		if !nal.IsAncestor(sy.P, sf.B) && !env.trusted(sy.P) {
			return fmt.Errorf("%w: %s neither owns %s nor is a trust root", ErrUnsound, sy.P, sf.B)
		}
		if !s.F.Equal(sf) {
			return fmt.Errorf("%w: handoff conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleAndI:
		if err := need(2); err != nil {
			return err
		}
		if !s.F.Equal(nal.And{L: ps[0], R: ps[1]}) {
			return fmt.Errorf("%w: and-i conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleAndE1, RuleAndE2:
		if err := need(1); err != nil {
			return err
		}
		a, ok := ps[0].(nal.And)
		if !ok {
			return fmt.Errorf("%w: and-e premise must be a conjunction", ErrUnsound)
		}
		want := a.L
		if s.Rule == RuleAndE2 {
			want = a.R
		}
		if !s.F.Equal(want) {
			return fmt.Errorf("%w: and-e conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleOrI1, RuleOrI2:
		if err := need(1); err != nil {
			return err
		}
		o, ok := s.F.(nal.Or)
		if !ok {
			return fmt.Errorf("%w: or-i must conclude a disjunction", ErrUnsound)
		}
		want := o.L
		if s.Rule == RuleOrI2 {
			want = o.R
		}
		if !want.Equal(ps[0]) {
			return fmt.Errorf("%w: or-i premise mismatch", ErrUnsound)
		}
		return nil

	case RuleOrE:
		if err := need(1); err != nil {
			return err
		}
		o, ok := ps[0].(nal.Or)
		if !ok {
			return fmt.Errorf("%w: or-e premise must be a disjunction", ErrUnsound)
		}
		if len(s.Sub) != 2 {
			return fmt.Errorf("%w: or-e needs two subproofs", ErrUnsound)
		}
		if !s.Sub[0].Hyp.Equal(o.L) || !s.Sub[1].Hyp.Equal(o.R) {
			return fmt.Errorf("%w: or-e subproof hypotheses must be the disjuncts", ErrUnsound)
		}
		for i := range s.Sub {
			if err := checkSub(s.Sub[i], s.F, env, res); err != nil {
				return err
			}
		}
		return nil

	case RuleImpI:
		if err := need(0); err != nil {
			return err
		}
		imp, ok := s.F.(nal.Implies)
		if !ok {
			return fmt.Errorf("%w: imp-i must conclude an implication", ErrUnsound)
		}
		if len(s.Sub) != 1 || !s.Sub[0].Hyp.Equal(imp.L) {
			return fmt.Errorf("%w: imp-i needs one subproof hypothesizing the antecedent", ErrUnsound)
		}
		return checkSub(s.Sub[0], imp.R, env, res)

	case RuleImpE:
		if err := need(2); err != nil {
			return err
		}
		imp, ok := ps[0].(nal.Implies)
		if !ok || !imp.L.Equal(ps[1]) {
			return fmt.Errorf("%w: imp-e premises must be S => T and S", ErrUnsound)
		}
		if !s.F.Equal(imp.R) {
			return fmt.Errorf("%w: imp-e conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleNotNotI:
		if err := need(1); err != nil {
			return err
		}
		if !s.F.Equal(nal.Not{F: nal.Not{F: ps[0]}}) {
			return fmt.Errorf("%w: notnot-i conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleNotE:
		if err := need(2); err != nil {
			return err
		}
		n, ok := ps[0].(nal.Not)
		if !ok || !n.F.Equal(ps[1]) {
			return fmt.Errorf("%w: not-e premises must be not S and S", ErrUnsound)
		}
		if _, ok := s.F.(nal.FalseF); !ok {
			return fmt.Errorf("%w: not-e must conclude false", ErrUnsound)
		}
		return nil

	case RuleFalseE:
		if err := need(1); err != nil {
			return err
		}
		if _, ok := ps[0].(nal.FalseF); !ok {
			return fmt.Errorf("%w: false-e premise must be false", ErrUnsound)
		}
		return nil

	case RuleSaysFalseE:
		if err := need(1); err != nil {
			return err
		}
		sy, ok := ps[0].(nal.Says)
		if !ok {
			return fmt.Errorf("%w: says-false-e premise must be P says false", ErrUnsound)
		}
		if _, ok := sy.F.(nal.FalseF); !ok {
			return fmt.Errorf("%w: says-false-e premise must be P says false", ErrUnsound)
		}
		out, ok := s.F.(nal.Says)
		if !ok || !out.P.EqualPrin(sy.P) {
			return fmt.Errorf("%w: says-false-e conclusion must stay within the speaker's worldview", ErrUnsound)
		}
		return nil

	case RuleSaysAndI:
		if err := need(2); err != nil {
			return err
		}
		a, ok1 := ps[0].(nal.Says)
		b, ok2 := ps[1].(nal.Says)
		if !ok1 || !ok2 || !a.P.EqualPrin(b.P) {
			return fmt.Errorf("%w: says-and-i premises must share a speaker", ErrUnsound)
		}
		if !s.F.Equal(nal.Says{P: a.P, F: nal.And{L: a.F, R: b.F}}) {
			return fmt.Errorf("%w: says-and-i conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleSaysAndE1, RuleSaysAndE2:
		if err := need(1); err != nil {
			return err
		}
		sy, ok := ps[0].(nal.Says)
		if !ok {
			return fmt.Errorf("%w: says-and-e premise must be P says (S and T)", ErrUnsound)
		}
		a, ok := sy.F.(nal.And)
		if !ok {
			return fmt.Errorf("%w: says-and-e premise must contain a conjunction", ErrUnsound)
		}
		want := a.L
		if s.Rule == RuleSaysAndE2 {
			want = a.R
		}
		if !s.F.Equal(nal.Says{P: sy.P, F: want}) {
			return fmt.Errorf("%w: says-and-e conclusion mismatch", ErrUnsound)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown rule %q", ErrUnsound, s.Rule)
}

func checkSub(sub Subproof, want nal.Formula, env *Env, res *Result) error {
	if len(sub.Steps) == 0 {
		// An empty subproof is permitted when the hypothesis itself is the
		// required conclusion.
		if sub.Hyp.Equal(want) {
			return nil
		}
		return fmt.Errorf("%w: empty subproof does not conclude %q", ErrUnsound, want)
	}
	if err := checkFrame(sub.Steps, sub.Hyp, env, res); err != nil {
		return err
	}
	last := sub.Steps[len(sub.Steps)-1].F
	if !last.Equal(want) {
		return fmt.Errorf("%w: subproof concludes %q, need %q", ErrUnsound, last, want)
	}
	return nil
}

// constTerm reports whether t is a constant literal that the checker may
// compare without consulting an authority.
func constTerm(t nal.Term) bool {
	switch t.(type) {
	case nal.Int, nal.Str, nal.Time:
		return true
	}
	return false
}
