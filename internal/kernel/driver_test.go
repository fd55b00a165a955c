package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// TestHoldLinear feeds a 4 MiB frame to a splitter in
// receive-buffer-sized reads, into a held buffer already large enough for
// it, and requires the reassembly to cost at most 8 plain copies of the
// frame: held bytes move only when the buffer grows or the bytes consumed
// before them outweigh them, so a frame assembles in linear time. Copying
// the held bytes on every read instead costs about size/32 KiB copies (128
// here). Each side takes the fastest of 5 runs.
func TestHoldLinear(t *testing.T) {
	const size = 4 << 20
	stream := binary.LittleEndian.AppendUint32(nil, size)
	stream = append(stream, bytes.Repeat([]byte{0xa5}, size)...)
	buf := make([]byte, len(stream))
	reassemble := func() *splitter {
		s := &splitter{byteQueue: byteQueue{b: buf[:0]}}
		for rest := stream; len(rest) > 0; rest = rest[min(rxSize, len(rest)):] {
			s.hold(rest[:min(rxSize, len(rest))])
		}
		return s
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

// chunkConn is a Conn whose Read returns the next bytes of a stream, at
// most the next of its cut sizes per call (0 meaning no limit), and then
// io.EOF.
type chunkConn struct {
	stream, cuts []byte
	reads        int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.cuts) > 0 && c.cuts[c.reads%len(c.cuts)] != 0 {
		n = min(n, int(c.cuts[c.reads%len(c.cuts)]))
	}
	c.reads++
	n = copy(p[:n], c.stream)
	c.stream = c.stream[n:]
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *chunkConn) Close() error                { return nil }

// FuzzFrameSplit drives the frame splitter with a hostile byte stream
// delivered in arbitrary read sizes, on both of its read paths: the
// bytes a raw socket read returns, held and cut directly, and a Conn read
// through Read. It must never panic, must return exactly the frames a
// plain length-prefix walk of the whole stream finds, in order, and must
// fail only on an oversized length prefix, after every frame before it,
// or, reading through Read, at the end of the stream.
func FuzzFrameSplit(f *testing.F) {
	frame := func(body string) []byte { return prefixed([]byte(body)) }
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
		check := func(path string, got [][]byte, err error) {
			t.Helper()
			if len(got) > len(want) {
				t.Fatalf("%s: split %d frames, stream holds %d", path, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: frame %d: got %x, want %x", path, i, got[i], want[i])
				}
			}
			if wantErr {
				if !errors.Is(err, errFrameTooLarge) || len(got) != len(want) {
					t.Fatalf("%s: oversized prefix after %d frames: got %d frames, err %v", path, len(want), len(got), err)
				}
				return
			}
			if err != nil && err != io.EOF {
				t.Fatalf("%s: well-formed stream failed after %d frames: %v", path, len(got), err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: split %d frames, stream holds %d", path, len(got), len(want))
			}
		}
		keep := func(got [][]byte, f []byte) [][]byte {
			got = append(got, append([]byte(nil), f...))
			putFrameBuf(f)
			return got
		}

		// Held bytes: feed the stream in raw-read-sized chunks (sizes from
		// cuts, 0 meaning a full receive buffer), cutting after each until
		// the splitter holds no frame.
		var (
			s   splitter
			got [][]byte
			err error
		)
		for rest, i := stream, 0; len(rest) > 0 && err == nil; i++ {
			n := rxSize
			if len(cuts) > 0 && cuts[i%len(cuts)] != 0 {
				n = int(cuts[i%len(cuts)])
			}
			n = min(n, len(rest))
			s.hold(rest[:n])
			rest = rest[n:]
			for {
				var f []byte
				if f, err = s.cut(); f == nil || err != nil {
					break
				}
				got = keep(got, f)
			}
		}
		check("held", got, err)

		// Read: the splitter reads a chunkConn until it fails.
		in := newSplitter(&chunkConn{stream: stream, cuts: cuts}, nil, 0)
		got = nil
		for {
			f, err := in.next(true)
			if err != nil {
				check("read", got, err)
				break
			}
			got = keep(got, f)
		}
	})
}
