package proof

import (
	"fmt"
	"testing"

	"repro/internal/nal"
)

// chainProof builds the Figure 5 delegation chain: n speaksfor hops plus
// the initial statement.
func chainProof(n int) (*Proof, nal.Formula, []nal.Formula) {
	var creds []nal.Formula
	start := nal.Says{P: nal.Name("P0"), F: nal.Pred{Name: "s"}}
	creds = append(creds, start)
	for i := 0; i < n; i++ {
		creds = append(creds, nal.SpeaksFor{
			A: nal.Name(fmt.Sprintf("P%d", i)),
			B: nal.Name(fmt.Sprintf("P%d", i+1)),
		})
	}
	steps := []Step{{Rule: RuleLabel, Label: 0, F: start}}
	cur := nal.Formula(start)
	for i := 0; i < n; i++ {
		steps = append(steps, Step{Rule: RuleLabel, Label: i + 1, F: creds[i+1]})
		cur = nal.Says{P: nal.Name(fmt.Sprintf("P%d", i+1)), F: nal.Pred{Name: "s"}}
		steps = append(steps, Step{
			Rule:     RuleSpeaksForE,
			Premises: []int{len(steps) - 1, len(steps) - 2},
			F:        cur,
		})
	}
	return &Proof{Steps: steps}, cur, creds
}

func TestCompiledMatchesStructural(t *testing.T) {
	for _, src := range proofSeeds {
		p := MustParse(src)
		goal := p.Conclusion()
		env := fuzzEnv(p)
		want, wantErr := checkText(p, goal, env)
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("%q: compile: %v", src, err)
		}
		got, gotErr := c.Check(goal, env)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%q: structural err=%v, compiled err=%v", src, wantErr, gotErr)
			continue
		}
		if wantErr == nil && !sameResult(got, want) {
			t.Errorf("%q: structural %+v, compiled %+v", src, want, got)
		}
	}
}

// TestCompiledCheckZeroAlloc is the tentpole acceptance check: checking a
// compiled proof on the warm path performs zero allocations — which rules
// out text parsing, AST serialization, and canonical-string comparison, all
// of which allocate. Equality is ID equality only.
func TestCompiledCheckZeroAlloc(t *testing.T) {
	pf, goal, creds := chainProof(12)
	env := &Env{Credentials: creds}
	c, err := Compile(pf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check(goal, env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Check(goal, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled warm check allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCompiledCheckZeroAllocColdMemo repeats the zero-alloc check with the
// memo cleared each run: even the memo-miss path must not allocate on
// success (inserts hit preallocated shard maps after the first run).
func TestCompiledCheckZeroAllocColdMemo(t *testing.T) {
	pf, goal, creds := chainProof(12)
	env := &Env{Credentials: creds}
	c, err := Compile(pf)
	if err != nil {
		t.Fatal(err)
	}
	SetMemoEnabled(false)
	defer SetMemoEnabled(true)
	if _, err := c.Check(goal, env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Check(goal, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled memo-off check allocates %.1f objects/op, want 0", allocs)
	}
}

// subframeProof builds a proof whose single imp-i step carries a subframe
// of width conjunctions — the shape the subproof memo exists for.
func subframeProof(width int) (*Proof, nal.Formula) {
	hyp := nal.MustParse("a")
	var sub []Step
	sub = append(sub, Step{Rule: RuleTrueI, F: nal.TrueF{}})
	cur := nal.Formula(nal.And{L: hyp, R: nal.TrueF{}})
	sub = append(sub, Step{Rule: RuleAndI, Premises: []int{-1, 0}, F: cur})
	for i := 0; i < width; i++ {
		cur = nal.And{L: hyp, R: cur}
		sub = append(sub, Step{Rule: RuleAndI, Premises: []int{-1, len(sub) - 1}, F: cur})
	}
	goal := nal.Implies{L: hyp, R: cur}
	return &Proof{Steps: []Step{{
		Rule: RuleImpI, F: goal,
		Sub: []Subproof{{Hyp: hyp, Steps: sub}},
	}}}, goal
}

func TestCompiledMemoHits(t *testing.T) {
	MemoReset()
	pf, goal := subframeProof(8)
	env := &Env{}
	c, err := Compile(pf)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := c.Check(goal, env)
	if err != nil {
		t.Fatal(err)
	}
	cold := MemoStats()
	if cold.Hits != 0 || cold.Misses != 1 {
		t.Fatalf("cold check: stats %+v, want one miss (the imp-i step)", cold)
	}
	res2, err := c.Check(goal, env)
	if err != nil {
		t.Fatal(err)
	}
	warm := MemoStats()
	if warm.Hits != 1 {
		t.Errorf("warm check hits = %d, want 1", warm.Hits)
	}
	if !sameResult(res2, res1) {
		t.Errorf("memo hit changed the result: %+v vs %+v", res2, res1)
	}

	// A structurally identical proof compiled from a separate AST reuses
	// the lemma across "requests".
	pf2, goal2 := subframeProof(8)
	c2, err := Compile(pf2)
	if err != nil {
		t.Fatal(err)
	}
	before := MemoStats()
	if _, err := c2.Check(goal2, &Env{}); err != nil {
		t.Fatal(err)
	}
	after := MemoStats()
	if after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Errorf("structurally identical proof missed the memo: %+v vs %+v", after, before)
	}
}

// TestCompiledSubproofMemo verifies that sub-carrying steps (imp-i, or-e)
// memoize whole frames: a warm re-check skips the nested steps while the
// reported step count still matches a full walk.
func TestCompiledSubproofMemo(t *testing.T) {
	MemoReset()
	src := "0. imp-i : a => (a and true)\n  assume : a\n  0. true-i : true\n  1. and-i -1 0 : a and true\n"
	p := MustParse(src)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	goal := p.Conclusion()
	res1, err := c.Check(goal, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.Check(goal, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res1, res2) {
		t.Errorf("memoized re-check result %+v differs from cold %+v", res2, res1)
	}
	if res1.Steps != 3 { // imp-i + two subproof steps
		t.Errorf("Steps = %d, want 3", res1.Steps)
	}
	s := MemoStats()
	if s.Hits == 0 {
		t.Error("sub-carrying step was not memoized")
	}
}

// TestCompiledLabelStepsNotMemoized pins the memo's environment rule:
// credential-dependent steps re-check every time, so swapping the
// credential list flips the verdict even on a memo-warm proof.
func TestCompiledLabelStepsNotMemoized(t *testing.T) {
	pf, goal, creds := chainProof(4)
	c, err := Compile(pf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check(goal, &Env{Credentials: creds}); err != nil {
		t.Fatal(err)
	}
	// Warm memo, wrong credentials: must fail.
	bad := make([]nal.Formula, len(creds))
	copy(bad, creds)
	bad[0] = nal.MustParse("Other says s")
	if _, err := c.Check(goal, &Env{Credentials: bad}); err == nil {
		t.Error("check passed with swapped credentials on a memo-warm proof")
	}
	// And with the right ones again: still passes.
	if _, err := c.Check(goal, &Env{Credentials: creds}); err != nil {
		t.Errorf("re-check with correct credentials failed: %v", err)
	}
}

// TestCheckRoutesThroughCompiled confirms the public Check uses the
// compiled representation (the Proof caches it) and produces identical
// results to the structural reference.
func TestCheckRoutesThroughCompiled(t *testing.T) {
	pf, goal, creds := chainProof(6)
	env := &Env{Credentials: creds}
	res, err := Check(pf, goal, env)
	if err != nil {
		t.Fatal(err)
	}
	if c, cerr := pf.Compiled(); cerr != nil || c == nil {
		t.Fatalf("Check did not populate the compiled form: %v", cerr)
	}
	ref, err := checkText(pf, goal, env)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, ref) {
		t.Errorf("Check %+v differs from structural reference %+v", res, ref)
	}
	if c, _ := pf.Compiled(); c.Len() != pf.Len() {
		t.Errorf("Compiled.Len() = %d, Proof.Len() = %d", c.Len(), pf.Len())
	}
}

// TestCompiledLabelIndexWidth: a credential index wider than 32 bits must
// not be remapped by compilation — the compiled checker has to agree with
// the structural reference on out-of-range labels.
func TestCompiledLabelIndexWidth(t *testing.T) {
	f := nal.MustParse("ok(1)")
	p := &Proof{Steps: []Step{{Rule: RuleLabel, Label: 1 << 32, F: f}}}
	env := &Env{Credentials: []nal.Formula{f}} // credential #0 matches; #2^32 must not
	if _, err := checkText(p, f, env); err == nil {
		t.Fatal("structural checker accepted an out-of-range label")
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check(f, env); err == nil {
		t.Fatal("compiled checker accepted an out-of-range label the reference rejects")
	}
}

// TestCompiledAuthorityRevalidation: authority steps are consulted on every
// compiled check, memo or not — the §2.7 no-caching rule for dynamic state.
func TestCompiledAuthorityRevalidation(t *testing.T) {
	goal := nal.MustParse("Clock says ok")
	p := &Proof{Steps: []Step{{Rule: RuleAuthority, Channel: "clock", F: goal}}}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	allow := true
	env := &Env{Authority: func(ch string, f nal.Formula) bool {
		calls++
		if ch != "clock" || !f.Equal(goal) {
			t.Errorf("authority consulted with %q, %q", ch, f)
		}
		return allow
	}}
	for i := 0; i < 3; i++ {
		res, err := c.Check(goal, env)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cacheable {
			t.Error("authority-dependent proof reported cacheable")
		}
	}
	if calls != 3 {
		t.Errorf("authority consulted %d times over 3 checks, want 3", calls)
	}
	allow = false
	if _, err := c.Check(goal, env); err == nil {
		t.Error("check passed after the authority withdrew")
	}
}
