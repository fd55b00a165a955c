package fauxbook

import (
	"bytes"
	"testing"

	"repro/internal/fauxbook/cobuf"
	"repro/internal/nal"
)

// testWall builds a wall of n 120-byte posts cycling through owners.
func testWall(n int, owners ...nal.Principal) []*cobuf.Buf {
	wall := make([]*cobuf.Buf, n)
	for i := range wall {
		post := bytes.Repeat([]byte{byte('a' + i)}, 120)
		wall[i] = cobuf.New(owners[i%len(owners)], post)
	}
	return wall
}

// wallEntries walks a blob the codec accepted: each entry's tag bytes and
// data, plus whether a trailing byte too short to frame an entry was left.
func wallEntries(blob []byte) (tags, data [][]byte, trailing bool) {
	for len(blob) >= 2 {
		n := int(blob[0])<<8 | int(blob[1])
		e := blob[2 : 2+n]
		tn := int(e[0])<<8 | int(e[1])
		tags = append(tags, e[2:2+tn])
		data = append(data, e[2+tn:])
		blob = blob[2+n:]
	}
	return tags, data, len(blob) != 0
}

// TestWallCodecFormat pins the stored format: every entry is a 2-byte
// length, then the cobuf form — a 2-byte tag length, the owner's canonical
// text, the post — and a mixed-owner wall decodes each entry to its own
// owner.
func TestWallCodecFormat(t *testing.T) {
	alice, bob := nal.MustPrincipal("fauxbook.user.alice"), nal.MustPrincipal("key:ab12")
	wall := testWall(5, alice, alice, bob)
	var want []byte
	for _, b := range wall {
		tag := b.Owner().String()
		post, _ := cobuf.Reveal(nil, b, b.Owner())
		n := 2 + len(tag) + len(post)
		want = append(want, byte(n>>8), byte(n), byte(len(tag)>>8), byte(len(tag)))
		want = append(want, tag...)
		want = append(want, post...)
	}
	blob := marshalWall(wall)
	if !bytes.Equal(blob, want) {
		t.Fatalf("wall blob changed format:\n got  %x\n want %x", blob, want)
	}
	back, err := unmarshalWall(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(wall) {
		t.Fatalf("decoded %d entries, want %d", len(back), len(wall))
	}
	for i := range wall {
		if !back[i].Owner().EqualPrin(wall[i].Owner()) {
			t.Errorf("entry %d owner %v, want %v", i, back[i].Owner(), wall[i].Owner())
		}
	}
}

// TestAllocWallCodec pins the wall codec's allocations for an 8-post,
// one-owner wall: marshalWall allocates only the blob, and unmarshalWall
// parses the shared owner tag once rather than once per post.
func TestAllocWallCodec(t *testing.T) {
	wall := testWall(8, nal.MustPrincipal("fauxbook.user.alice"))
	blob := marshalWall(wall)
	if a := testing.AllocsPerRun(100, func() { marshalWall(wall) }); a > 1 {
		t.Errorf("marshalWall allocates %.0f objects for 8 posts, want ≤ 1", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := unmarshalWall(blob); err != nil {
			t.Fatal(err)
		}
	}); a > 30 {
		t.Errorf("unmarshalWall allocates %.0f objects for 8 posts, want ≤ 30", a)
	}
}

// FuzzWallBlob feeds unmarshalWall arbitrary bytes, as a storage node the
// front kernel does not trust could return them: it yields entries or an
// error and never panics; every entry's owner is what its own tag parses
// to (tag reuse across entries never mislabels a post); and a blob whose
// tags are all canonical re-marshals to the same bytes.
func FuzzWallBlob(f *testing.F) {
	alice, bob := nal.MustPrincipal("fauxbook.user.alice"), nal.MustPrincipal("key:ab12")
	f.Add([]byte{})
	f.Add(marshalWall(testWall(8, alice)))
	f.Add(marshalWall(testWall(5, alice, bob)))
	f.Add([]byte("\x00\x08\x00\x06 alice")) // non-canonical tag (leading space)
	f.Add([]byte("\x00\x07\x00\x05alice\x00"))
	f.Add([]byte("\x00\x05\x00\x09alice"))   // tag runs past the entry
	f.Add([]byte("\x00\x09\x00\x05alicehi")) // entry runs past the blob
	f.Add([]byte("\x00\x02\x00\x00"))        // empty tag
	f.Fuzz(func(t *testing.T, blob []byte) {
		wall, err := unmarshalWall(blob)
		if err != nil {
			return
		}
		tags, data, trailing := wallEntries(blob)
		if len(tags) != len(wall) {
			t.Fatalf("decoded %d entries from %d", len(wall), len(tags))
		}
		canonical := !trailing
		for i, b := range wall {
			p, err := nal.ParsePrincipal(string(tags[i]))
			if err != nil {
				t.Fatalf("entry %d accepted with unparsable tag %q: %v", i, tags[i], err)
			}
			if !b.Owner().EqualPrin(p) {
				t.Fatalf("entry %d: owner %v, its tag %q parses to %v", i, b.Owner(), tags[i], p)
			}
			if post, err := cobuf.Reveal(nil, b, b.Owner()); err != nil || !bytes.Equal(post, data[i]) {
				t.Fatalf("entry %d: post %q, stored %q (%v)", i, post, data[i], err)
			}
			canonical = canonical && string(tags[i]) == nal.KeyOfPrin(p)
		}
		if out := marshalWall(wall); canonical && !bytes.Equal(out, blob) {
			t.Fatalf("canonical blob re-marshaled differently:\n in  %x\n out %x", blob, out)
		}
	})
}
