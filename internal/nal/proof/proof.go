// Package proof implements NAL proof objects and the proof checker used by
// Nexus guards.
//
// Proof derivation in NAL is undecidable, so the Nexus places the burden of
// proof construction on the client: a principal invoking a guarded operation
// presents an explicit derivation of the goal formula from credentials
// (labels), axioms, and live authority queries. The guard merely checks the
// derivation — a problem linear in proof size (§2.6 of the paper).
//
// A Proof is a sequence of steps; each step names an inference rule, the
// indices of earlier steps it uses as premises, and its conclusion.
// Hypothetical rules (implication introduction, disjunction elimination)
// carry nested subproofs. Check validates every step and reports whether the
// proof is cacheable: proofs that consult authorities reference dynamic
// system state and must be re-validated on every use (§2.7–2.8).
package proof

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/nal"
)

// Rule names an inference rule of the NAL proof system.
type Rule string

// The proof rules. Premise shapes are documented on each rule; see check.go
// for the precise validation.
const (
	// RuleLabel imports credential #Label from the environment. The guard
	// authenticates the label (it came from a labelstore or a verified
	// certificate) before admitting it.
	RuleLabel Rule = "label"
	// RuleAuthority concludes P says S by querying a live authority over an
	// attested IPC channel. Never cacheable.
	RuleAuthority Rule = "authority"
	// RuleSubPrin is the subprincipal axiom: A speaksfor A.t1...tn.
	RuleSubPrin Rule = "subprin"
	// RuleTrueI concludes true from nothing.
	RuleTrueI Rule = "true-i"
	// RuleCompare concludes a ground comparison over constants (no atoms).
	RuleCompare Rule = "compare"
	// RuleSaysUnit: from S conclude P says S (everyone believes derived
	// facts; the unit of the says monad).
	RuleSaysUnit Rule = "says-unit"
	// RuleSaysJoin: from P says P says S conclude P says S.
	RuleSaysJoin Rule = "says-join"
	// RuleSaysImpE: from P says (S => T) and P says S conclude P says T.
	RuleSaysImpE Rule = "says-imp-e"
	// RuleSpeaksForE: from A speaksfor B [on pat] and A says S conclude
	// B says S; with a scope, S must match pat.
	RuleSpeaksForE Rule = "speaksfor-e"
	// RuleSpeaksForTrans: from A speaksfor B and B speaksfor C conclude
	// A speaksfor C. A scope on the first premise carries through.
	RuleSpeaksForTrans Rule = "speaksfor-t"
	// RuleHandoff: from C says (A speaksfor B) where C is B or an ancestor
	// of B, conclude A speaksfor B (delegation by the owner).
	RuleHandoff Rule = "handoff"
	// RuleAndI, RuleAndE1, RuleAndE2 are the conjunction rules.
	RuleAndI  Rule = "and-i"
	RuleAndE1 Rule = "and-e1"
	RuleAndE2 Rule = "and-e2"
	// RuleOrI1, RuleOrI2, RuleOrE are the disjunction rules; or-e carries two
	// hypothetical subproofs.
	RuleOrI1 Rule = "or-i1"
	RuleOrI2 Rule = "or-i2"
	RuleOrE  Rule = "or-e"
	// RuleImpI introduces an implication from a hypothetical subproof;
	// RuleImpE is modus ponens.
	RuleImpI Rule = "imp-i"
	RuleImpE Rule = "imp-e"
	// RuleNotNotI is double negation introduction, the simplest NAL rule
	// (constructive logic lacks the elimination direction).
	RuleNotNotI Rule = "notnot-i"
	// RuleNotE: from not S and S conclude false.
	RuleNotE Rule = "not-e"
	// RuleFalseE is ex falso quodlibet.
	RuleFalseE Rule = "false-e"
	// RuleSaysFalseE: from P says false conclude P says G — damage from a
	// lying principal is confined to its own worldview (§2.1).
	RuleSaysFalseE Rule = "says-false-e"
	// Derived convenience rules for reasoning under says.
	RuleSaysAndI  Rule = "says-and-i"  // P says S, P says T ⊢ P says (S and T)
	RuleSaysAndE1 Rule = "says-and-e1" // P says (S and T) ⊢ P says S
	RuleSaysAndE2 Rule = "says-and-e2" // P says (S and T) ⊢ P says T
)

// Step is one derivation step.
type Step struct {
	Rule     Rule
	Premises []int // indices of earlier steps in the same frame
	F        nal.Formula
	Sub      []Subproof // hypothetical subproofs (imp-i, or-e)
	Label    int        // credential index for RuleLabel
	Channel  string     // authority channel for RuleAuthority
}

// Subproof is a derivation under a local hypothesis. Steps inside the
// subproof may reference the hypothesis as premise index -1 and outer steps
// through Outer offsets resolved by the checker.
type Subproof struct {
	Hyp   nal.Formula
	Steps []Step
}

// Proof is a complete derivation; its conclusion is the formula of the final
// step. Proofs are immutable once parsed or registered: Parse may return a
// shared *Proof for identical text, the kernel proof store and guard cache
// alias registered proofs across requests, and the fingerprint and compiled
// form are computed once — mutating Steps after any of those desynchronizes
// all three. Build a new Proof instead.
type Proof struct {
	Steps []Step

	fpOnce sync.Once
	fp     string

	cOnce    sync.Once
	compiled *Compiled
	cerr     error
}

// Compiled returns the proof's compiled form, translating it on first use
// and caching the result; a kernel setproof warms this so the authorization
// path never compiles. The error (a proof the compiler rejects, or a
// saturated hash-cons table) is sticky, and callers respond by using the
// structural checker instead.
func (p *Proof) Compiled() (*Compiled, error) {
	p.cOnce.Do(func() { p.compiled, p.cerr = Compile(p) })
	return p.compiled, p.cerr
}

// Fingerprint returns a stable hash of the proof's textual form, computed
// once. Guards key their proof caches on it (§2.9), so registered proofs
// must not be mutated afterwards.
func (p *Proof) Fingerprint() string {
	p.fpOnce.Do(func() { //nexus:coldpath — runs once per proof; later calls only load p.fp
		sum := sha1.Sum([]byte(p.String()))
		p.fp = hex.EncodeToString(sum[:])
	})
	return p.fp
}

// Conclusion returns the formula proved, or nil for an empty proof.
func (p *Proof) Conclusion() nal.Formula {
	if p == nil || len(p.Steps) == 0 {
		return nil
	}
	return p.Steps[len(p.Steps)-1].F
}

// Len returns the number of rule applications in the proof, including
// subproof steps. Figure 5 of the paper plots checking cost against this.
func (p *Proof) Len() int {
	n := 0
	var count func(steps []Step)
	count = func(steps []Step) {
		for _, s := range steps {
			n++
			for _, sub := range s.Sub {
				count(sub.Steps)
			}
		}
	}
	count(p.Steps)
	return n
}

// String renders the proof in its textual exchange format; see Parse.
func (p *Proof) String() string {
	var sb strings.Builder
	writeSteps(&sb, p.Steps, 0)
	return sb.String()
}

func writeSteps(sb *strings.Builder, steps []Step, indent int) {
	pad := strings.Repeat("  ", indent)
	for i, s := range steps {
		fmt.Fprintf(sb, "%s%d. %s", pad, i, s.Rule)
		if s.Rule == RuleLabel {
			fmt.Fprintf(sb, " #%d", s.Label)
		}
		if s.Rule == RuleAuthority {
			fmt.Fprintf(sb, " @%s", s.Channel)
		}
		for _, pr := range s.Premises {
			fmt.Fprintf(sb, " %d", pr)
		}
		fmt.Fprintf(sb, " : %s\n", s.F)
		for _, sub := range s.Sub {
			fmt.Fprintf(sb, "%s  assume : %s\n", pad, sub.Hyp)
			writeSteps(sb, sub.Steps, indent+1)
		}
	}
}

// Assume returns a single-step proof importing credential index i with
// formula f. It is the trivial proof used throughout the microbenchmarks.
func Assume(i int, f nal.Formula) *Proof {
	return &Proof{Steps: []Step{{Rule: RuleLabel, Label: i, F: f}}}
}
