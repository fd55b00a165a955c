package nexus

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// BenchmarkProof is BENCH_proof.json: the compiled proof pipeline on the
// authorization miss path, for the 12-rule delegation proof of Figure 5
// and for a subproof-carrying proof, the memo's target. Each row reports
// its proof's length in steps (proof-len) and, for the delegation proof,
// its chain length (chain-len).
//
//	miss/text       novel proof text: parse + compile + check
//	warm/text       repeat proof text: parse-cache hit + compiled check
//	check/compiled  compiled check, subproof memo enabled (warm)
//	check/nomemo    compiled check, memo disabled
//	check/textref   the structural reference checker
//	compile         compilation alone
//	subframe/*      one imp-i step carrying a 64-step hypothetical frame,
//	                memo on/off: a memo hit skips the whole frame
func BenchmarkProof(b *testing.B) {
	const chain = 12
	pf, goal, creds := fig5Proof("delegate", chain)
	text := pf.String()
	env := &proof.Env{Credentials: creds}
	c, err := pf.Compiled()
	if err != nil {
		b.Fatal(err)
	}

	hyp := nal.MustParse("a")
	sub := []proof.Step{{Rule: proof.RuleTrueI, F: nal.TrueF{}}}
	cur := nal.Formula(nal.And{L: hyp, R: nal.TrueF{}})
	sub = append(sub, proof.Step{Rule: proof.RuleAndI, Premises: []int{-1, 0}, F: cur})
	for i := 0; i < 62; i++ {
		cur = nal.And{L: hyp, R: cur}
		sub = append(sub, proof.Step{Rule: proof.RuleAndI, Premises: []int{-1, len(sub) - 1}, F: cur})
	}
	sgoal := nal.Formula(nal.Implies{L: hyp, R: cur})
	spf := &proof.Proof{Steps: []proof.Step{{
		Rule: proof.RuleImpI, F: sgoal,
		Sub: []proof.Subproof{{Hyp: hyp, Steps: sub}},
	}}}
	sc, err := spf.Compiled()
	if err != nil {
		b.Fatal(err)
	}

	// row runs the sub-benchmark name with the memo set to memo, and
	// records the size of the proof it checks.
	row := func(name string, p *proof.Proof, memo bool, body func(b *testing.B) error) {
		b.Run(name, func(b *testing.B) {
			proof.SetMemoEnabled(memo)
			defer proof.SetMemoEnabled(true)
			b.ReportAllocs()
			if err := body(b); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(p.Len()), "proof-len")
			if p == pf {
				b.ReportMetric(chain, "chain-len")
			}
		})
	}
	check := func(c *proof.Compiled, goal nal.Formula, env *proof.Env) func(b *testing.B) error {
		return func(b *testing.B) error {
			for i := 0; i < b.N; i++ {
				if _, err := c.Check(goal, env); err != nil {
					return err
				}
			}
			return nil
		}
	}

	row("miss/text", pf, true, func(b *testing.B) error {
		// A unique trailing spacer line defeats the parse cache without
		// changing the proof, so every iteration pays lex + compile (against
		// an already-populated cons table: the "known structure" miss).
		texts := make([]string, b.N)
		for i := range texts {
			texts[i] = text + strings.Repeat(" ", i%197) + "\n" + fmt.Sprint(i) + ". true-i : true"
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := proof.Parse(texts[i])
			if err != nil {
				return err
			}
			if _, err := proof.Check(p, p.Conclusion(), env); err != nil {
				return err
			}
		}
		return nil
	})
	row("warm/text", pf, true, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			p, err := proof.Parse(text)
			if err != nil {
				return err
			}
			if _, err := proof.Check(p, goal, env); err != nil {
				return err
			}
		}
		return nil
	})
	row("check/compiled", pf, true, check(c, goal, env))
	row("check/nomemo", pf, false, check(c, goal, env))
	row("check/textref", pf, true, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := proof.CheckStructural(pf, goal, env); err != nil {
				return err
			}
		}
		return nil
	})
	row("compile", pf, true, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := proof.Compile(pf); err != nil {
				return err
			}
		}
		return nil
	})
	row("subframe/memo", spf, true, check(sc, sgoal, &proof.Env{}))
	row("subframe/nomemo", spf, false, check(sc, sgoal, &proof.Env{}))
}
