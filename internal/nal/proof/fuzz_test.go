package proof

import (
	"strings"
	"testing"

	"repro/internal/nal"
)

// proofSeeds cover every rule family and the subproof grammar.
var proofSeeds = []string{
	"0. label #0 : alice says wantsAccess",
	"0. true-i : true",
	"0. compare : 1 < 2",
	"0. authority @clock : Clock says ok",
	"0. subprin : a speaksfor a.b",
	"0. label #0 : P0 says s\n1. label #1 : P0 speaksfor P1\n2. speaksfor-e 1 0 : P1 says s",
	"0. label #0 : a\n1. notnot-i 0 : not (not a)",
	"0. label #0 : a\n1. and-i 0 0 : a and a\n2. and-e1 1 : a",
	"0. label #0 : p says (q and r)\n1. says-and-e1 0 : p says q",
	"0. label #0 : kernel says (a speaksfor kernel.x)\n1. handoff 0 : a speaksfor kernel.x",
	"0. imp-i : a => a\n  assume : a\n",
	"0. label #0 : a or b\n1. or-e 0 : c\n  assume : a\n  0. label #1 : c\n  assume : b\n  0. label #1 : c\n",
	"0. label #0 : a\n1. or-i1 0 : a or b",
	"0. label #0 : not a\n1. label #1 : a\n2. not-e 0 1 : false\n3. false-e 2 : anything",
	"0. label #0 : p says false\n1. says-false-e 0 : p says q",
	"0. label #0 : p says (a => b)\n1. label #1 : p says a\n2. says-imp-e 0 1 : p says b",
	"0. imp-i : a => (a and true)\n  assume : a\n  0. true-i : true\n  1. and-i -1 0 : a and true\n",
}

// fuzzEnv synthesizes a credential list satisfying the proof's label steps
// (first claim per index wins, so inconsistent proofs still fail in both
// checkers identically) and an authority that affirms everything.
func fuzzEnv(p *Proof) *Env {
	creds := map[int]nal.Formula{}
	max := -1
	var walk func(steps []Step)
	walk = func(steps []Step) {
		for _, s := range steps {
			if s.Rule == RuleLabel && s.Label >= 0 && s.Label < 64 {
				if _, ok := creds[s.Label]; !ok {
					creds[s.Label] = s.F
				}
				if s.Label > max {
					max = s.Label
				}
			}
			for _, sub := range s.Sub {
				walk(sub.Steps)
			}
		}
	}
	walk(p.Steps)
	list := make([]nal.Formula, max+1)
	for i := range list {
		if f, ok := creds[i]; ok {
			list[i] = f
		} else {
			list[i] = nal.TrueF{}
		}
	}
	return &Env{
		Credentials: list,
		Authority:   func(string, nal.Formula) bool { return true },
		TrustRoots:  []nal.Principal{nal.Name("fuzzroot")},
	}
}

// sameResult reports whether two check results agree field by field, the
// affirmed consultations by channel and formula.
func sameResult(a, b Result) bool {
	if a.Cacheable != b.Cacheable || a.AuthorityCalls != b.AuthorityCalls || a.Steps != b.Steps ||
		len(a.Consulted) != len(b.Consulted) {
		return false
	}
	for i, c := range a.Consulted {
		if c.Channel != b.Consulted[i].Channel || !c.F.Equal(b.Consulted[i].F) {
			return false
		}
	}
	return true
}

// FuzzParseProof asserts the proof text format's core contracts: Parse
// never panics or hangs, accepted proofs round-trip through String with
// String a fixed point, and the compiled checker agrees with the structural
// checker on every accepted input.
func FuzzParseProof(f *testing.F) {
	for _, s := range proofSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return // bound deeply nested inputs; hang-freedom is covered below this size
		}
		// parseText is the uncached core: the round-trip property must hold
		// for the parser itself, not for the memo in Parse.
		p1, err := parseText(src)
		if err != nil {
			return
		}
		s1 := p1.String()
		p2, err := parseText(s1)
		if err != nil {
			t.Fatalf("reparse of printed proof failed: %v\nprinted:\n%s", err, s1)
		}
		if s2 := p2.String(); s2 != s1 {
			t.Fatalf("String not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
		}

		if len(p1.Steps) == 0 {
			return
		}
		goal := p1.Conclusion()
		env := fuzzEnv(p1)

		// Differential: the compiled checker must agree with the structural
		// reference. The memo is disabled so lemma reuse cannot mask strict
		// proof-object divergences; the memo's own contract is covered by
		// the valid-proof pass below.
		SetMemoEnabled(false)
		refRes, refErr := checkText(p1, goal, env)
		c, cerr := Compile(p1)
		if cerr == nil {
			cRes, cErr := c.Check(goal, env)
			if (refErr == nil) != (cErr == nil) {
				t.Fatalf("checker divergence: structural err=%v, compiled err=%v\nproof:\n%s", refErr, cErr, s1)
			}
			if refErr == nil {
				if !sameResult(cRes, refRes) {
					t.Fatalf("result divergence: structural %+v, compiled %+v\nproof:\n%s", refRes, cRes, s1)
				}
			}
		} else if refErr == nil && cerr != ErrConsSaturated {
			// Everything the structural checker accepts must compile, except
			// when a very long fuzz run has filled the process-wide cons
			// table — saturation is the documented graceful-degradation path.
			t.Fatalf("valid proof failed to compile: %v\nproof:\n%s", cerr, s1)
		}
		SetMemoEnabled(true)

		// Memo pass: a structurally valid proof stays valid with the memo
		// on, first cold then warm, with identical step accounting.
		if refErr == nil && cerr == nil {
			for pass := 0; pass < 2; pass++ {
				res, err := c.Check(goal, env)
				if err != nil {
					t.Fatalf("memo pass %d rejected a valid proof: %v\nproof:\n%s", pass, err, s1)
				}
				if !sameResult(res, refRes) {
					t.Fatalf("memo pass %d result %+v differs from %+v\nproof:\n%s", pass, res, refRes, s1)
				}
			}
		}

		// The parsed and reparsed proofs must check identically (textual
		// round-trip preserves semantics, not just syntax).
		rtRes, rtErr := checkText(p2, goal, fuzzEnv(p2))
		if (refErr == nil) != (rtErr == nil) || (refErr == nil && !sameResult(rtRes, refRes)) {
			t.Fatalf("round-trip changed check outcome: %v/%+v vs %v/%+v\nproof:\n%s",
				refErr, refRes, rtErr, rtRes, s1)
		}
	})
}

// TestParseMisindented pins the fix for the parser hang: a line indented
// past its frame that is not a subproof must be rejected, not spun on.
func TestParseMisindented(t *testing.T) {
	for _, src := range []string{
		"0. true-i : true\n    1. true-i : true",
		"0. true-i : true\n  1. true-i : true",
		"0. imp-i : a => a\n  assume : a\n      0. true-i : true",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted misindented proof %q", src)
		}
	}
}

// TestParseProofSeeds keeps every fuzz seed parseable and round-tripping,
// so the corpus cannot rot.
func TestParseProofSeeds(t *testing.T) {
	for _, src := range proofSeeds {
		p, err := Parse(src)
		if err != nil {
			t.Errorf("seed %q: %v", src, err)
			continue
		}
		s1 := p.String()
		p2, err := Parse(s1)
		if err != nil {
			t.Errorf("seed %q: reparse: %v", src, err)
			continue
		}
		if s2 := p2.String(); s1 != s2 {
			t.Errorf("seed %q: String not a fixed point:\n%s\nvs\n%s", src, s1, s2)
		}
		if !strings.Contains(src, "assume") && len(p.Steps) == 0 {
			t.Errorf("seed %q parsed to an empty proof", src)
		}
	}
}
