package proof

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/nal"
)

// TestWrongGoalReason checks the wrong-goal denial against the fmt
// rendering it replaced: for FuzzGoalKey's seed goals and bindings, and
// the local workload's deny shape (a label vouching for another object
// against `?S says mayRead(?O)`), the compiled checker with the goal bound
// in place and the structural checker with the goal instantiated both
// return an error wrapping ErrWrongGoal whose text is byte for byte
// fmt.Errorf("%w: proved %q, goal %q", ErrWrongGoal, concl, instantiated).
// One conclusion outgrows the renderer's stack buffer.
func TestWrongGoalReason(t *testing.T) {
	goals := []string{
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
		"?S says ?O says ?Op says x",
		"?S.child says f(?S, [?O, ?Op], g(?V))",
		"?S speaksfor ?O on P and ?Op = ?O",
		"?O says x => not (?Op says ?S says y)",
		"?S says mayRead(?O)",
	}
	bindings := [][3]string{
		{"kernel.ipd.12", "file:/x", "read"},
		{"key:ab12.ipd.3", `o"bj`, "wr\\ite"},
		{"?O", "", ""},
		{"hash:ff", "obj", "op"},
		{"not a principal!", "\x00", "é"},
		{"/proc/ipd/5", "/deny/3", "read"},
	}
	concls := []nal.Formula{
		nal.Says{P: nal.Name("/proc/ipd/5"), F: nal.Pred{Name: "mayRead", Args: []nal.Term{nal.Str("/deny/3/elsewhere")}}},
		nal.MustParse(`x != "tab\there, bell\a, ü and \"quotes\""`),
		nal.Pred{Name: "big", Args: []nal.Term{nal.Str(strings.Repeat("long ", 120))}},
	}
	for _, src := range goals {
		goal := nal.MustParse(src)
		for _, bs := range bindings {
			var subj nal.Principal = nal.Name(bs[0])
			if p, err := nal.ParsePrincipal(bs[0]); err == nil {
				subj = p
			}
			b := &nal.Binding{Subject: subj, Obj: bs[1], Op: bs[2]}
			inst := b.Subst().Apply(goal)
			for _, concl := range concls {
				if concl.Equal(inst) {
					continue
				}
				p := Assume(0, concl)
				env := &Env{Credentials: []nal.Formula{concl}}
				want := fmt.Errorf("%w: proved %q, goal %q", ErrWrongGoal, concl, inst).Error()
				for _, c := range []struct {
					name string
					run  func() (Result, error)
				}{
					{"compiled, bound", func() (Result, error) { return CheckBound(p, goal, b, env) }},
					{"structural, instantiated", func() (Result, error) { return CheckStructural(p, inst, env) }},
				} {
					_, err := c.run()
					if !errors.Is(err, ErrWrongGoal) {
						t.Fatalf("%s: goal %q, %v: err %v, want ErrWrongGoal", c.name, src, bs, err)
					}
					if err.Error() != want {
						t.Fatalf("%s: goal %q, %v:\n got  %q\n want %q", c.name, src, bs, err.Error(), want)
					}
				}
			}
		}
	}
}
