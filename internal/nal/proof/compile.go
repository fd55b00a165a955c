package proof

import (
	"errors"
	"fmt"

	"repro/internal/nal"
)

// Compile errors.
var (
	// ErrConsSaturated reports that the hash-cons table hit its cap while
	// interning the proof's formulas; callers fall back to the structural
	// checker, trading speed for unchanged semantics.
	ErrConsSaturated = errors.New("proof: hash-cons table saturated")
	// ErrUncompilable reports a proof whose shape the compiler rejects
	// (nil conclusions, out-of-range premises); the structural checker
	// produces the precise diagnostic.
	ErrUncompilable = errors.New("proof: not compilable")
)

// Compiled is the compiled representation of a proof: every step's
// conclusion and premises resolved to hash-consed FormulaIDs, rule tags and
// memo keys precomputed, subproofs nested in place. Checking a Compiled
// proof performs no text parsing, no AST serialization, and no structural
// formula comparisons — formula equality is integer equality on IDs, and
// destructuring is array indexing into the formula DAG.
//
// A Compiled value is immutable and safe for concurrent use; the kernel
// compiles a proof once at setproof and every subsequent authorize reuses
// it.
type Compiled struct {
	steps  []cstep
	nsteps int // total rule applications including subproofs
}

type cstep struct {
	rule Rule
	f    nal.FormulaID
	// prems holds the first two premise conclusions, resolved at compile
	// time; np is the declared premise count. No rule takes more than two
	// premises, so a step with np > 2 fails its arity check regardless of
	// the overflow values.
	prems   [2]nal.FormulaID
	np      uint8
	sub     []csub
	label   int // full width: truncating Step.Label would remap credentials
	channel string
	ground  bool
	// pure marks steps whose validity depends only on hash-consed
	// identities: no label, no authority, and no handoff that needs a trust
	// root; nested subproofs all pure. Only pure steps touch the memo.
	pure     bool
	substeps int32 // rule applications inside nested subproofs
	key      memoKey
}

type csub struct {
	hyp   nal.FormulaID
	steps []cstep
}

// Compile translates p into its compiled form. It does not validate the
// proof beyond shape (Check does); it fails only when the proof is
// structurally uncompilable or the hash-cons table is saturated.
func Compile(p *Proof) (*Compiled, error) {
	if p == nil || len(p.Steps) == 0 {
		return nil, ErrEmptyProof
	}
	c := &Compiled{}
	steps, _, err := c.compileFrame(p.Steps, 0, false)
	if err != nil {
		return nil, err
	}
	c.steps = steps
	return c, nil
}

// Conclusion returns the ID of the formula the proof derives.
func (c *Compiled) Conclusion() nal.FormulaID { return c.steps[len(c.steps)-1].f }

// Len returns the total number of rule applications, matching Proof.Len.
func (c *Compiled) Len() int { return c.nsteps }

func (c *Compiled) compileFrame(steps []Step, hyp nal.FormulaID, hasHyp bool) ([]cstep, bool, error) {
	out := make([]cstep, len(steps))
	framePure := true
	for at, s := range steps {
		c.nsteps++
		if s.F == nil {
			return nil, false, fmt.Errorf("%w: step %d has no conclusion", ErrUncompilable, at)
		}
		id, ok := nal.IDOf(s.F)
		if !ok {
			return nil, false, ErrConsSaturated
		}
		cs := &out[at]
		cs.rule = s.Rule
		cs.f = id
		cs.label = s.Label
		cs.channel = s.Channel
		cs.ground = nal.GroundID(id)
		if len(s.Premises) > 255 {
			return nil, false, fmt.Errorf("%w: step %d has %d premises", ErrUncompilable, at, len(s.Premises))
		}
		cs.np = uint8(len(s.Premises))
		for j, i := range s.Premises {
			var id nal.FormulaID
			switch {
			case i == -1:
				if !hasHyp {
					return nil, false, fmt.Errorf("%w: step %d references hypothesis outside subproof", ErrUncompilable, at)
				}
				id = hyp
			case i < 0 || i >= at:
				return nil, false, fmt.Errorf("%w: step %d references out-of-range premise %d", ErrUncompilable, at, i)
			default:
				id = out[i].f
			}
			if j < 2 {
				cs.prems[j] = id
			}
		}
		subPure := true
		if len(s.Sub) > 0 {
			cs.sub = make([]csub, len(s.Sub))
			before := c.nsteps
			for si, sub := range s.Sub {
				if sub.Hyp == nil {
					return nil, false, fmt.Errorf("%w: subproof of step %d has no hypothesis", ErrUncompilable, at)
				}
				hypID, ok := nal.IDOf(sub.Hyp)
				if !ok {
					return nil, false, ErrConsSaturated
				}
				ss, pure, err := c.compileFrame(sub.Steps, hypID, true)
				if err != nil {
					return nil, false, err
				}
				cs.sub[si] = csub{hyp: hypID, steps: ss}
				subPure = subPure && pure
			}
			cs.substeps = int32(c.nsteps - before)
		}
		cs.pure = subPure && c.stepPure(cs)
		framePure = framePure && cs.pure
		if cs.pure {
			cs.key = memoKey{rule: cs.rule, np: cs.np, nsub: uint8(len(cs.sub)),
				p0: cs.prems[0], p1: cs.prems[1], f: cs.f}
		}
	}
	return out, framePure, nil
}

// stepPure reports whether the step's own rule is environment-independent.
// Label steps depend on the credential list, authority steps on live state,
// and a handoff needs the trust roots unless the speaker already owns the
// delegatee — decidable here because premises are resolved.
func (c *Compiled) stepPure(cs *cstep) bool {
	switch cs.rule {
	case RuleLabel, RuleAuthority:
		return false
	case RuleHandoff:
		if cs.np != 1 {
			return false
		}
		sy := nal.FormulaNode(cs.prems[0])
		if sy.Kind != nal.FSays {
			return false
		}
		sf := nal.FormulaNode(nal.FormulaID(sy.L))
		return sf.Kind == nal.FSpeaksFor && nal.IsAncestorID(sy.P, sf.B)
	}
	return true
}

// Check validates the compiled proof and confirms its conclusion equals
// goal, with the semantics of Check on the source proof.
//
//nexus:noalloc
func (c *Compiled) Check(goal nal.Formula, env *Env) (Result, error) {
	return c.CheckBound(goal, nil, env)
}

// CheckBound is Check against goal with its guard variables bound by b,
// with the semantics of CheckBound on the source proof. The warm path —
// every formula already interned, memo hits on pure steps — allocates
// nothing (pinned by TestAllocCompiledProofCheck and, through the guard,
// TestAllocGuardProofCacheMiss; nexuslint checks the static view); a
// wrong-goal denial allocates its message and error (errWrongGoal).
//
//nexus:noalloc
func (c *Compiled) CheckBound(goal nal.Formula, b *nal.Binding, env *Env) (Result, error) {
	var res Result
	if env == nil {
		env = &Env{} //nexus:coldpath — warm callers pass their own Env
	}
	credIDs := env.CredentialIDs
	// Interning credentials on the fly is the compatibility path; warm
	// callers (the kernel's registered-proof pipeline) precompute
	// CredentialIDs once at SetProof time.
	if len(credIDs) != len(env.Credentials) { //nexus:coldpath
		var buf [32]nal.FormulaID
		credIDs = buf[:0]
		for _, cr := range env.Credentials {
			// ok=false means the credential is not in the table and cannot
			// enter it (cap); it then equals no interned step conclusion,
			// and ID 0 correctly matches nothing.
			id, _ := nal.IDOf(cr)
			credIDs = append(credIDs, id)
		}
	}
	if err := checkFrameC(c.steps, credIDs, env, &res); err != nil {
		return res, err
	}
	// One structural comparison of the final conclusion against the goal,
	// its variables bound in place: goals are instantiated per request
	// with per-process principals, so interning them would grow the cons
	// table with process churn, and EqualBound against the DAG's canonical
	// AST neither allocates nor builds the instantiated goal.
	if concl := nal.FormulaOfID(c.Conclusion()); !nal.EqualBound(concl, goal, b) {
		return res, errWrongGoal(concl, goal, b)
	}
	res.Cacheable = res.AuthorityCalls == 0
	return res, nil
}

func checkFrameC(steps []cstep, credIDs []nal.FormulaID, env *Env, res *Result) error {
	for at := range steps {
		s := &steps[at]
		res.Steps++
		if !s.ground {
			return fmt.Errorf("%w: step %d conclusion %q is not ground", ErrUnsound, at, nal.FormulaOfID(s.f))
		}
		// The memo covers pure steps that carry subproofs: a hit skips the
		// nested frames entirely. Simple pure steps are deliberately NOT
		// memoized — with ID equality their destructuring check is cheaper
		// than a memo probe (BenchmarkProof/check/compiled vs check/nomemo).
		memoable := s.pure && len(s.sub) > 0
		if memoable {
			if v, ok := memoLookup(&s.key); ok {
				res.Steps += int(v.extra)
				continue
			}
		}
		if err := checkStepC(s, credIDs, env, res); err != nil {
			return fmt.Errorf("step %d (%s): %w", at, s.rule, err)
		}
		if memoable {
			memoInsert(&s.key, memoVal{extra: s.substeps})
		}
	}
	return nil
}

func checkSubC(sub *csub, want nal.FormulaID, credIDs []nal.FormulaID, env *Env, res *Result) error {
	if len(sub.steps) == 0 {
		if sub.hyp == want {
			return nil
		}
		return fmt.Errorf("%w: empty subproof does not conclude %q", ErrUnsound, nal.FormulaOfID(want))
	}
	if err := checkFrameC(sub.steps, credIDs, env, res); err != nil {
		return err
	}
	if last := sub.steps[len(sub.steps)-1].f; last != want {
		return fmt.Errorf("%w: subproof concludes %q, need %q",
			ErrUnsound, nal.FormulaOfID(last), nal.FormulaOfID(want))
	}
	return nil
}

// checkStepC is checkStep over the formula DAG: destructuring is array
// indexing (nal.FormulaNode), every equality an integer compare.
func checkStepC(s *cstep, credIDs []nal.FormulaID, env *Env, res *Result) error {
	ps := &s.prems
	need := func(n uint8) error {
		if s.np != n {
			return fmt.Errorf("%w: expected %d premises, have %d", ErrUnsound, n, s.np)
		}
		return nil
	}
	cf := nal.FormulaNode(s.f)
	switch s.rule {
	case RuleLabel:
		if s.label < 0 || s.label >= len(credIDs) {
			return fmt.Errorf("%w: credential #%d not supplied", ErrNoCred, s.label)
		}
		if credIDs[s.label] != s.f {
			return fmt.Errorf("%w: credential #%d is %q, step claims %q",
				ErrNoCred, s.label, env.Credentials[s.label], nal.FormulaOfID(s.f))
		}
		return nil

	case RuleAuthority:
		res.AuthorityCalls++
		f := nal.FormulaOfID(s.f)
		if env.Authority == nil || !env.Authority(s.channel, f) {
			return fmt.Errorf("%w: channel %q, statement %q", ErrAuthority, s.channel, f)
		}
		res.Consulted = append(res.Consulted, Consultation{Channel: s.channel, F: f}) //nexus:coldpath — authorities answer over IPC; the pinned paths consult none
		return nil

	case RuleSubPrin:
		if cf.Kind != nal.FSpeaksFor || cf.HasScope {
			return fmt.Errorf("%w: subprin must conclude unscoped speaksfor", ErrUnsound)
		}
		if cf.A == cf.B || !nal.IsAncestorID(cf.A, cf.B) {
			return fmt.Errorf("%w: %s is not a proper ancestor of %s",
				ErrUnsound, nal.PrinOfID(cf.A), nal.PrinOfID(cf.B))
		}
		return nil

	case RuleTrueI:
		if cf.Kind != nal.FTrue {
			return fmt.Errorf("%w: true-i must conclude true", ErrUnsound)
		}
		return nil

	case RuleCompare:
		if cf.Kind != nal.FCompare {
			return fmt.Errorf("%w: compare must conclude a comparison", ErrUnsound)
		}
		l, r := nal.TermID(cf.L), nal.TermID(cf.R)
		if !constTermID(l) || !constTermID(r) {
			return fmt.Errorf("%w: comparison %q mentions non-constant terms (use an authority)",
				ErrUnsound, nal.FormulaOfID(s.f))
		}
		sign, ok := nal.CompareTerms(nal.TermOfID(l), nal.TermOfID(r))
		if !ok || !cf.Op.Eval(sign) {
			return fmt.Errorf("%w: comparison %q does not hold", ErrUnsound, nal.FormulaOfID(s.f))
		}
		return nil

	case RuleSaysUnit:
		if err := need(1); err != nil {
			return err
		}
		if cf.Kind != nal.FSays || nal.FormulaID(cf.L) != ps[0] {
			return fmt.Errorf("%w: says-unit must wrap the premise", ErrUnsound)
		}
		return nil

	case RuleSaysJoin:
		if err := need(1); err != nil {
			return err
		}
		outer := nal.FormulaNode(ps[0])
		if outer.Kind != nal.FSays {
			return fmt.Errorf("%w: says-join premise must be P says P says S", ErrUnsound)
		}
		inner := nal.FormulaNode(nal.FormulaID(outer.L))
		if inner.Kind != nal.FSays || inner.P != outer.P {
			return fmt.Errorf("%w: says-join premise must be P says P says S", ErrUnsound)
		}
		if cf.Kind != nal.FSays || cf.P != outer.P || cf.L != inner.L {
			return fmt.Errorf("%w: says-join conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleSaysImpE:
		if err := need(2); err != nil {
			return err
		}
		impSays := nal.FormulaNode(ps[0])
		if impSays.Kind != nal.FSays {
			return fmt.Errorf("%w: says-imp-e first premise must be P says (S => T)", ErrUnsound)
		}
		imp := nal.FormulaNode(nal.FormulaID(impSays.L))
		if imp.Kind != nal.FImplies {
			return fmt.Errorf("%w: says-imp-e first premise must contain an implication", ErrUnsound)
		}
		argSays := nal.FormulaNode(ps[1])
		if argSays.Kind != nal.FSays || argSays.P != impSays.P || argSays.L != imp.L {
			return fmt.Errorf("%w: says-imp-e second premise must be P says S", ErrUnsound)
		}
		if cf.Kind != nal.FSays || cf.P != impSays.P || cf.L != imp.R {
			return fmt.Errorf("%w: says-imp-e conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleSpeaksForE:
		if err := need(2); err != nil {
			return err
		}
		sf := nal.FormulaNode(ps[0])
		if sf.Kind != nal.FSpeaksFor {
			return fmt.Errorf("%w: speaksfor-e first premise must be a speaksfor", ErrUnsound)
		}
		sy := nal.FormulaNode(ps[1])
		if sy.Kind != nal.FSays || sy.P != sf.A {
			return fmt.Errorf("%w: speaksfor-e second premise must be A says S", ErrUnsound)
		}
		if sf.HasScope && !nal.PatternMatchesID(sf.Name, nal.FormulaID(sy.L)) {
			return fmt.Errorf("%w: statement %q outside delegation scope %q",
				ErrUnsound, nal.FormulaOfID(nal.FormulaID(sy.L)), sf.Name)
		}
		if cf.Kind != nal.FSays || cf.P != sf.B || cf.L != sy.L {
			return fmt.Errorf("%w: speaksfor-e conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleSpeaksForTrans:
		if err := need(2); err != nil {
			return err
		}
		ab := nal.FormulaNode(ps[0])
		bc := nal.FormulaNode(ps[1])
		if ab.Kind != nal.FSpeaksFor || bc.Kind != nal.FSpeaksFor || ab.B != bc.A {
			return fmt.Errorf("%w: speaksfor-t premises must chain", ErrUnsound)
		}
		if bc.HasScope {
			return fmt.Errorf("%w: speaksfor-t second premise must be unscoped", ErrUnsound)
		}
		if cf.Kind != nal.FSpeaksFor || cf.A != ab.A || cf.B != bc.B ||
			cf.HasScope != ab.HasScope || cf.Name != ab.Name {
			return fmt.Errorf("%w: speaksfor-t conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleHandoff:
		if err := need(1); err != nil {
			return err
		}
		sy := nal.FormulaNode(ps[0])
		if sy.Kind != nal.FSays {
			return fmt.Errorf("%w: handoff premise must be C says (A speaksfor B)", ErrUnsound)
		}
		sf := nal.FormulaNode(nal.FormulaID(sy.L))
		if sf.Kind != nal.FSpeaksFor {
			return fmt.Errorf("%w: handoff premise must contain a speaksfor", ErrUnsound)
		}
		if !nal.IsAncestorID(sy.P, sf.B) && !trustedID(env, sy.P) {
			return fmt.Errorf("%w: %s neither owns %s nor is a trust root",
				ErrUnsound, nal.PrinOfID(sy.P), nal.PrinOfID(sf.B))
		}
		if s.f != nal.FormulaID(sy.L) {
			return fmt.Errorf("%w: handoff conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleAndI:
		if err := need(2); err != nil {
			return err
		}
		if cf.Kind != nal.FAnd || nal.FormulaID(cf.L) != ps[0] || nal.FormulaID(cf.R) != ps[1] {
			return fmt.Errorf("%w: and-i conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleAndE1, RuleAndE2:
		if err := need(1); err != nil {
			return err
		}
		a := nal.FormulaNode(ps[0])
		if a.Kind != nal.FAnd {
			return fmt.Errorf("%w: and-e premise must be a conjunction", ErrUnsound)
		}
		want := a.L
		if s.rule == RuleAndE2 {
			want = a.R
		}
		if s.f != nal.FormulaID(want) {
			return fmt.Errorf("%w: and-e conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleOrI1, RuleOrI2:
		if err := need(1); err != nil {
			return err
		}
		if cf.Kind != nal.FOr {
			return fmt.Errorf("%w: or-i must conclude a disjunction", ErrUnsound)
		}
		want := cf.L
		if s.rule == RuleOrI2 {
			want = cf.R
		}
		if nal.FormulaID(want) != ps[0] {
			return fmt.Errorf("%w: or-i premise mismatch", ErrUnsound)
		}
		return nil

	case RuleOrE:
		if err := need(1); err != nil {
			return err
		}
		o := nal.FormulaNode(ps[0])
		if o.Kind != nal.FOr {
			return fmt.Errorf("%w: or-e premise must be a disjunction", ErrUnsound)
		}
		if len(s.sub) != 2 {
			return fmt.Errorf("%w: or-e needs two subproofs", ErrUnsound)
		}
		if s.sub[0].hyp != nal.FormulaID(o.L) || s.sub[1].hyp != nal.FormulaID(o.R) {
			return fmt.Errorf("%w: or-e subproof hypotheses must be the disjuncts", ErrUnsound)
		}
		for i := range s.sub {
			if err := checkSubC(&s.sub[i], s.f, credIDs, env, res); err != nil {
				return err
			}
		}
		return nil

	case RuleImpI:
		if err := need(0); err != nil {
			return err
		}
		if cf.Kind != nal.FImplies {
			return fmt.Errorf("%w: imp-i must conclude an implication", ErrUnsound)
		}
		if len(s.sub) != 1 || s.sub[0].hyp != nal.FormulaID(cf.L) {
			return fmt.Errorf("%w: imp-i needs one subproof hypothesizing the antecedent", ErrUnsound)
		}
		return checkSubC(&s.sub[0], nal.FormulaID(cf.R), credIDs, env, res)

	case RuleImpE:
		if err := need(2); err != nil {
			return err
		}
		imp := nal.FormulaNode(ps[0])
		if imp.Kind != nal.FImplies || nal.FormulaID(imp.L) != ps[1] {
			return fmt.Errorf("%w: imp-e premises must be S => T and S", ErrUnsound)
		}
		if s.f != nal.FormulaID(imp.R) {
			return fmt.Errorf("%w: imp-e conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleNotNotI:
		if err := need(1); err != nil {
			return err
		}
		if cf.Kind != nal.FNot {
			return fmt.Errorf("%w: notnot-i conclusion mismatch", ErrUnsound)
		}
		inner := nal.FormulaNode(nal.FormulaID(cf.L))
		if inner.Kind != nal.FNot || nal.FormulaID(inner.L) != ps[0] {
			return fmt.Errorf("%w: notnot-i conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleNotE:
		if err := need(2); err != nil {
			return err
		}
		n := nal.FormulaNode(ps[0])
		if n.Kind != nal.FNot || nal.FormulaID(n.L) != ps[1] {
			return fmt.Errorf("%w: not-e premises must be not S and S", ErrUnsound)
		}
		if cf.Kind != nal.FFalse {
			return fmt.Errorf("%w: not-e must conclude false", ErrUnsound)
		}
		return nil

	case RuleFalseE:
		if err := need(1); err != nil {
			return err
		}
		if nal.FormulaNode(ps[0]).Kind != nal.FFalse {
			return fmt.Errorf("%w: false-e premise must be false", ErrUnsound)
		}
		return nil

	case RuleSaysFalseE:
		if err := need(1); err != nil {
			return err
		}
		sy := nal.FormulaNode(ps[0])
		if sy.Kind != nal.FSays || nal.FormulaNode(nal.FormulaID(sy.L)).Kind != nal.FFalse {
			return fmt.Errorf("%w: says-false-e premise must be P says false", ErrUnsound)
		}
		if cf.Kind != nal.FSays || cf.P != sy.P {
			return fmt.Errorf("%w: says-false-e conclusion must stay within the speaker's worldview", ErrUnsound)
		}
		return nil

	case RuleSaysAndI:
		if err := need(2); err != nil {
			return err
		}
		a := nal.FormulaNode(ps[0])
		b := nal.FormulaNode(ps[1])
		if a.Kind != nal.FSays || b.Kind != nal.FSays || a.P != b.P {
			return fmt.Errorf("%w: says-and-i premises must share a speaker", ErrUnsound)
		}
		if cf.Kind != nal.FSays || cf.P != a.P {
			return fmt.Errorf("%w: says-and-i conclusion mismatch", ErrUnsound)
		}
		body := nal.FormulaNode(nal.FormulaID(cf.L))
		if body.Kind != nal.FAnd || body.L != a.L || body.R != b.L {
			return fmt.Errorf("%w: says-and-i conclusion mismatch", ErrUnsound)
		}
		return nil

	case RuleSaysAndE1, RuleSaysAndE2:
		if err := need(1); err != nil {
			return err
		}
		sy := nal.FormulaNode(ps[0])
		if sy.Kind != nal.FSays {
			return fmt.Errorf("%w: says-and-e premise must be P says (S and T)", ErrUnsound)
		}
		a := nal.FormulaNode(nal.FormulaID(sy.L))
		if a.Kind != nal.FAnd {
			return fmt.Errorf("%w: says-and-e premise must contain a conjunction", ErrUnsound)
		}
		want := a.L
		if s.rule == RuleSaysAndE2 {
			want = a.R
		}
		if cf.Kind != nal.FSays || cf.P != sy.P || cf.L != want {
			return fmt.Errorf("%w: says-and-e conclusion mismatch", ErrUnsound)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown rule %q", ErrUnsound, s.rule)
}

func trustedID(env *Env, p nal.PrinID) bool {
	if len(env.TrustRoots) == 0 {
		return false
	}
	prin := nal.PrinOfID(p)
	for _, r := range env.TrustRoots {
		if nal.IsAncestor(r, prin) {
			return true
		}
	}
	return false
}

// constTermID mirrors constTerm over the DAG.
func constTermID(id nal.TermID) bool {
	switch nal.TermNode(id).Kind {
	case nal.TInt, nal.TStr, nal.TTime:
		return true
	}
	return false
}
