package cobuf

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/nal"
)

type judge map[string]map[string]bool

func (j judge) MayFlow(src, dst nal.Principal) bool {
	return j[src.String()][dst.String()]
}

var (
	alice = nal.Name("alice")
	bob   = nal.Name("bob")
	eve   = nal.Name("eve")
)

func friendsJudge() judge {
	// alice allows bob.
	return judge{"alice": {"bob": true}}
}

func TestSliceAndLen(t *testing.T) {
	b := New(alice, []byte("hello world"))
	if b.Len() != 11 {
		t.Fatalf("Len = %d", b.Len())
	}
	s, err := b.Slice(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Owner().EqualPrin(alice) || s.Len() != 5 {
		t.Errorf("slice owner/len wrong: %v %d", s.Owner(), s.Len())
	}
	if _, err := b.Slice(5, 3); !errors.Is(err, ErrBounds) {
		t.Errorf("want ErrBounds, got %v", err)
	}
	if _, err := b.Slice(0, 100); !errors.Is(err, ErrBounds) {
		t.Errorf("want ErrBounds, got %v", err)
	}
}

func TestConcatRespectsGraph(t *testing.T) {
	j := friendsJudge()
	a := New(alice, []byte("from-alice "))
	bobsPage := New(bob, []byte("bob-page "))
	// alice→bob allowed.
	out, err := Concat(j, bobsPage, a)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Owner().EqualPrin(bob) {
		t.Error("concat result must be owned by destination")
	}
	// bob→alice not allowed (directed).
	alicesPage := New(alice, nil)
	b := New(bob, []byte("bobs-secret"))
	if _, err := Concat(j, alicesPage, b); !errors.Is(err, ErrFlow) {
		t.Errorf("want ErrFlow, got %v", err)
	}
	// Same owner always flows.
	if _, err := Concat(j, a, New(alice, []byte("x"))); err != nil {
		t.Errorf("same-owner concat: %v", err)
	}
	// Nil judge: only same-owner flows.
	if _, err := Concat(nil, bobsPage, a); !errors.Is(err, ErrFlow) {
		t.Errorf("nil judge: want ErrFlow, got %v", err)
	}
}

func TestRevealRespectsGraph(t *testing.T) {
	j := friendsJudge()
	post := New(alice, []byte("private-status"))
	got, err := Reveal(j, post, bob)
	if err != nil || !bytes.Equal(got, []byte("private-status")) {
		t.Errorf("friend reveal = %q, %v", got, err)
	}
	if _, err := Reveal(j, post, eve); !errors.Is(err, ErrFlow) {
		t.Errorf("stranger reveal: want ErrFlow, got %v", err)
	}
	if _, err := Reveal(j, post, alice); err != nil {
		t.Errorf("owner reveal: %v", err)
	}
}

func TestRetag(t *testing.T) {
	j := friendsJudge()
	post := New(alice, []byte("shared"))
	moved, err := Retag(j, post, bob)
	if err != nil || !moved.Owner().EqualPrin(bob) {
		t.Fatalf("Retag = %v, %v", moved, err)
	}
	if _, err := Retag(j, New(bob, nil), alice); !errors.Is(err, ErrFlow) {
		t.Errorf("unauthorized retag: want ErrFlow, got %v", err)
	}
}

// TestMarshalRoundTrip decodes a stored buffer into an arena sized by
// DataLen: the buffer keeps its owner and data after the stored form is
// overwritten. A stored form too short for its tag is rejected.
func TestMarshalRoundTrip(t *testing.T) {
	data := []byte{0, 1, 2, 255}
	b := New(nal.MustPrincipal("web.user.alice"), data)
	raw := AppendMarshal(nil, b)
	if DataLen(raw) != len(data) {
		t.Fatalf("DataLen = %d, want %d", DataLen(raw), len(data))
	}
	var d Decoder
	var back Buf
	arena := make([]byte, 0, DataLen(raw))
	if err := d.Unmarshal(&back, raw, &arena); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xee
	}
	if !back.Owner().EqualPrin(b.Owner()) {
		t.Errorf("round trip changed owner: %v", back.Owner())
	}
	if plain, _ := Reveal(nil, &back, back.Owner()); !bytes.Equal(plain, data) {
		t.Errorf("round trip data %v, want %v", plain, data)
	}
	for _, raw := range [][]byte{{0}, {0, 3, 'a'}} {
		if err := d.Unmarshal(&back, raw, &arena); !errors.Is(err, ErrBounds) {
			t.Errorf("unmarshal %q: want ErrBounds, got %v", raw, err)
		}
		if DataLen(raw) != 0 {
			t.Errorf("DataLen(%q) = %d, want 0", raw, DataLen(raw))
		}
	}
}

func TestQuickMarshal(t *testing.T) {
	prop := func(data []byte) bool {
		b := New(alice, data)
		var d Decoder
		var back Buf
		var arena []byte
		if err := d.Unmarshal(&back, AppendMarshal(nil, b), &arena); err != nil {
			return false
		}
		plain, err := Reveal(nil, &back, alice)
		return err == nil && bytes.Equal(plain, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNoContentAccess documents the central property: outside the package,
// there is no way to read a cobuf's bytes except Reveal, which consults the
// flow judge. (Compile-time property — the data field is unexported — so
// this test just demonstrates the API surface.)
func TestNoContentAccess(t *testing.T) {
	b := New(alice, []byte("secret"))
	// The only accessors are Owner, Len, Slice, Concat, Retag, Reveal,
	// AppendMarshal. AppendMarshal exposes bytes — but only trusted storage
	// layers see marshaled form; tenant code receives *Buf handles.
	if b.Len() != 6 {
		t.Fatal("len")
	}
	if _, err := Reveal(nil, b, eve); !errors.Is(err, ErrFlow) {
		t.Fatal("reveal must be judged")
	}
}
