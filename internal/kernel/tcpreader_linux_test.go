//go:build linux

package kernel

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestHoldLinear feeds a 4 MiB frame to the TCP reader in
// receive-buffer-sized reads, into a held buffer already large enough for
// it, and requires the reassembly to cost at most 8 plain copies of the
// frame: held bytes move only when the buffer grows or a frame was cut
// from its front, so a frame assembles in linear time. Copying the held
// bytes on every read instead costs about size/32 KiB copies (128 here).
// Each side takes the fastest of 5 runs.
func TestHoldLinear(t *testing.T) {
	const size = 4 << 20
	stream := binary.LittleEndian.AppendUint32(nil, size)
	stream = append(stream, bytes.Repeat([]byte{0xa5}, size)...)
	buf := make([]byte, len(stream))
	reassemble := func() *tcpReader {
		ts := &tcpReader{pend: buf[:0]}
		for rest := stream; len(rest) > 0; rest = rest[min(rxSize, len(rest)):] {
			ts.hold(rest[:min(rxSize, len(rest))])
		}
		return ts
	}
	if f, err := reassemble().cut(); err != nil || !bytes.Equal(f, stream[4:]) {
		t.Fatalf("the frame did not reassemble (err %v)", err)
	}
	fastest := func(f func()) time.Duration {
		var best time.Duration
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); i == 0 || d < best {
				best = d
			}
		}
		return best
	}
	plain := fastest(func() { copy(buf, stream) })
	held := fastest(func() { reassemble() })
	if held > 8*plain {
		t.Fatalf("reassembling a 4 MiB frame took %v, %.1f times one copy of it (%v); want at most 8",
			held, float64(held)/float64(plain), plain)
	}
	t.Logf("reassembly %v, one copy %v", held, plain)
}

// FuzzFrameSplit drives the TCP reader's user-space frame splitter with a
// hostile byte stream delivered in arbitrary read sizes: it must never
// panic, must return exactly the frames a plain length-prefix walk of the
// whole stream finds, in order, and must fail only on an oversized length
// prefix, after every frame before it.
func FuzzFrameSplit(f *testing.F) {
	frame := func(body string) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	f.Add([]byte{}, []byte{})
	f.Add(frame("hello"), []byte{1})
	f.Add(append(append(frame(""), frame("ab")...), frame("cde")...), []byte{3, 2})
	f.Add(append(frame("x"), 0xff, 0xff, 0xff, 0xff), []byte{7})
	f.Add(bytes.Repeat(frame("pipelined"), 40), []byte{200, 0, 13})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		// Reference: walk the whole stream.
		var want [][]byte
		wantErr := false
		for rest := stream; len(rest) >= 4; {
			n := binary.LittleEndian.Uint32(rest)
			if n > maxNetFrame {
				wantErr = true
				break
			}
			if len(rest) < 4+int(n) {
				break
			}
			want = append(want, rest[4:4+n])
			rest = rest[4+n:]
		}

		// The reader: feed the stream in read-sized chunks (sizes from cuts,
		// 0 meaning a full receive buffer), then cut until it holds no frame.
		var (
			ts  tcpReader
			got [][]byte
			err error
		)
		collect := func(f []byte, e error) bool {
			if e != nil {
				err = e
				return false
			}
			if f != nil {
				got = append(got, append([]byte(nil), f...))
				putFrameBuf(f)
			}
			return f != nil
		}
		for i := 0; len(stream) > 0 && err == nil; i++ {
			n := rxSize
			if len(cuts) > 0 && cuts[i%len(cuts)] != 0 {
				n = int(cuts[i%len(cuts)])
			}
			n = min(n, len(stream))
			chunk := stream[:n]
			stream = stream[n:]
			ts.hold(chunk)
			for collect(ts.cut()) {
			}
		}

		if len(got) > len(want) {
			t.Fatalf("split %d frames, stream holds %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: got %x, want %x", i, got[i], want[i])
			}
		}
		if wantErr {
			if err == nil || len(got) != len(want) {
				t.Fatalf("oversized prefix after %d frames: got %d frames, err %v", len(want), len(got), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed stream failed after %d frames: %v", len(got), err)
		}
		if len(got) != len(want) {
			t.Fatalf("split %d frames, stream holds %d", len(got), len(want))
		}
	})
}
