package nal

import (
	"testing"
)

// fuzzSeeds are formulas drawn from guard_test.go, the apps, and the
// examples, covering every production of the grammar.
var fuzzSeeds = []string{
	"?S says wantsAccess",
	"?S says wantsAccess(?O)",
	"?S says requested(?Op, ?O)",
	"NTP says TimeNow < @2026-03-19",
	"key:ab12 speaksfor alice on TimeNow",
	"hash:590fb6 says isTypeSafe(hash:590fb6)",
	`alice says openFile("/dir/file")`,
	"kernel.ipd.12 says ready",
	"a and b or not c => d",
	"quota(alice) <= 80",
	"size = 42 and owner says true",
	"false",
	"true",
	"[1, 2, 3] = [1, 2, 3]",
	`x != "quoted \"string\" with \\ escapes"`,
	"@2026-03-19T15:04:05Z < @2026-07-01",
	"p says (q says r)",
	"a speaksfor b and b speaksfor c",
	"not not x",
	"movieplayer says plays(\"film.mp4\", 1)",
}

// FuzzParseFormula checks the parser's core contracts on arbitrary input:
// it must never panic, and any formula it accepts must round-trip — f ==
// Parse(f.String()) up to structural equality, with String a fixed point
// and the canonical key machinery agreeing with the printed form.
func FuzzParseFormula(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := Parse(src)
		if err != nil {
			return
		}
		s1 := f1.String()
		f2, err := Parse(s1)
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", s1, src, err)
		}
		if !f2.Equal(f1) {
			t.Fatalf("round-trip changed the formula: %q parsed as %#v, printed %q, reparsed as %#v",
				src, f1, s1, f2)
		}
		if s2 := f2.String(); s2 != s1 {
			t.Fatalf("String not a fixed point: %q → %q", s1, s2)
		}
		if Hash64(f1) != Hash64(f2) {
			t.Fatalf("equal formulas hash differently: %q", s1)
		}
		// The canonical key names the equality class: it must parse back to
		// an equal formula. (It may differ from s1 in representation-only
		// corners, e.g. timestamps in different zones at the same instant.)
		key := KeyOf(f1)
		fk, err := Parse(key)
		if err != nil {
			t.Fatalf("canonical key %q does not parse: %v", key, err)
		}
		if !fk.Equal(f1) {
			t.Fatalf("canonical key %q parses to a different formula than %q", key, s1)
		}
	})
}

// FuzzParsePrincipal is the same contract for the principal sub-grammar.
func FuzzParsePrincipal(f *testing.F) {
	for _, s := range []string{"NTP", "key:ab12", "hash:590fb6", "kernel.ipd.12", "?X", "a.b.c"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := ParsePrincipal(src)
		if err != nil {
			return
		}
		s1 := p1.String()
		p2, err := ParsePrincipal(s1)
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", s1, src, err)
		}
		if !p2.EqualPrin(p1) {
			t.Fatalf("round-trip changed the principal: %q → %q", src, s1)
		}
		if KeyOfPrin(p1) != KeyOfPrin(p2) {
			t.Fatalf("equal principals got different canonical keys: %q", s1)
		}
	})
}

// FuzzGoalKey checks the bound encoder against the substitution it stands
// for: for any goal Parse accepts and any subject, object and operation,
// AppendBound renders exactly the canonical form of the instantiated goal.
// The guard's proof-cache key is that render, so this equality is what
// keeps the key as injective as the canonical form.
func FuzzGoalKey(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, "kernel.ipd.12", "file:/x", "read")
	}
	f.Add("?S says ?O says ?Op says x", "key:ab12.ipd.3", `o"bj`, "wr\\ite")
	f.Add("?S.child says f(?S, [?O, ?Op], g(?V))", "?O", "", "")
	f.Add("?S speaksfor ?O on P and ?Op = ?O", "hash:ff", "obj", "op")
	f.Add("?O says x => not (?Op says ?S says y)", "not a principal!", "\x00", "é")
	f.Fuzz(func(t *testing.T, goalSrc, subjSrc, obj, op string) {
		goal, err := Parse(goalSrc)
		if err != nil {
			return
		}
		var subj Principal = Name(subjSrc)
		if p, err := ParsePrincipal(subjSrc); err == nil {
			subj = p
		}
		sub := Subst{"S": PrinTerm{P: subj}, "O": Str(obj), "Op": Str(op)}
		want := AppendFormula(nil, sub.Apply(goal))
		b := &Binding{Subject: subj, Obj: obj, Op: op}
		if got := AppendBound([]byte("prefix"), goal, b); string(got[len("prefix"):]) != string(want) {
			t.Fatalf("bound render of %q with ?S=%q ?O=%q ?Op=%q:\n got  %q\n want %q", goalSrc, subj, obj, op, got[len("prefix"):], want)
		}
		if got := AppendBound(nil, goal, nil); string(got) != goal.String() {
			t.Fatalf("unbound render of %q is %q, want %q", goalSrc, got, goal.String())
		}
	})
}
