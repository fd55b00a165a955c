package guard

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// TestAllocGuardProofCacheHit pins the guard's proof-cache hit on a
// labelstore-reference credential at zero allocations. The kernel never
// caches such decisions, so every access re-enters the guard: the key is
// rendered into a stack buffer with the goal's variables bound in place,
// the credential resolves into stack arrays through the label's
// creation-time formula ID, and nothing is instantiated unless the lookup
// misses.
func TestAllocGuardProofCacheHit(t *testing.T) {
	w := newWorld(t)
	goal := nal.MustParse("?S says wantsAccess(?O, ?Op)")
	l, err := w.cli.Labels.Say(`wantsAccess("obj", "read")`)
	if err != nil {
		t.Fatal(err)
	}
	req := &kernel.GuardRequest{
		Kernel:  w.k,
		Subject: w.cli.Prin,
		Op:      "read",
		Obj:     "obj",
		Goal:    goal,
		Proof:   proof.Assume(0, l.Formula),
		Creds:   []kernel.Credential{{Ref: &kernel.LabelRef{PID: w.cli.PID, Handle: l.Handle}}},
	}
	if d := w.g.Check(req); !d.Allow || d.Cacheable {
		t.Fatalf("first check: allow=%v cacheable=%v (%s), want an uncacheable allow", d.Allow, d.Cacheable, d.Reason)
	}
	hits := w.g.StatsSnapshot().Hits
	allocs := testing.AllocsPerRun(200, func() {
		if d := w.g.Check(req); !d.Allow {
			t.Fatal(d.Reason)
		}
	})
	if got := w.g.StatsSnapshot().Hits - hits; got < 200 {
		t.Fatalf("%d proof-cache hits over the pinned run, want every check to hit", got)
	}
	if allocs != 0 {
		t.Errorf("proof-cache hit on a label credential allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAllocGuardProofCacheMiss pins the guard's miss path with the proof
// cache disabled, so every check runs the compiled checker, on the
// workload's two shapes: a label credential that discharges the goal
// `?S says mayRead(?O)`, and one that vouches for another object. The
// conclusion is compared with the goal bound in place, so the first
// allocates nothing and the second only its reason and error, a reason
// that reads exactly as fmt rendered it against the instantiated goal.
func TestAllocGuardProofCacheMiss(t *testing.T) {
	w := newWorld(t)
	w.g.SetCacheSize(0)
	goal := nal.MustParse("?S says mayRead(?O)")
	request := func(said string) *kernel.GuardRequest {
		l, err := w.cli.Labels.Say(`mayRead("` + said + `")`)
		if err != nil {
			t.Fatal(err)
		}
		return &kernel.GuardRequest{
			Kernel:  w.k,
			Subject: w.cli.Prin,
			Op:      "read",
			Obj:     "/deny/3",
			Goal:    goal,
			Proof:   proof.Assume(0, l.Formula),
			Creds:   []kernel.Credential{{Ref: &kernel.LabelRef{PID: w.cli.PID, Handle: l.Handle}}},
		}
	}
	grant, deny := request("/deny/3"), request("/deny/3/elsewhere")
	b := nal.Binding{Subject: w.cli.Prin, Obj: "/deny/3", Op: "read"}
	want := fmt.Errorf("%w: proved %q, goal %q", proof.ErrWrongGoal, deny.Proof.Conclusion(), b.Subst().Apply(goal)).Error()
	if d := w.g.Check(deny); d.Allow || d.Reason != want {
		t.Fatalf("wrong-goal check: allow=%v reason %q, want a denial reading %q", d.Allow, d.Reason, want)
	}
	for _, c := range []struct {
		name  string
		req   *kernel.GuardRequest
		allow bool
		max   float64
	}{
		{"discharged", grant, true, 0},
		{"wrong goal", deny, false, 2},
	} {
		misses := w.g.StatsSnapshot().Misses
		allocs := testing.AllocsPerRun(200, func() {
			if d := w.g.Check(c.req); d.Allow != c.allow {
				t.Fatalf("%s: allow=%v (%s)", c.name, d.Allow, d.Reason)
			}
		})
		if got := w.g.StatsSnapshot().Misses - misses; got < 200 {
			t.Fatalf("%s: %d proof-cache misses over the pinned run, want every check to miss", c.name, got)
		}
		if allocs > c.max {
			t.Errorf("%s: proof-cache miss allocates %.1f objects/op, want ≤ %v", c.name, allocs, c.max)
		}
	}
}
