package guard

import (
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
