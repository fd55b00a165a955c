//go:build !linux

package kernel

// rawReader does not build on this platform: every splitter reads its
// Conn through Read.
type rawReader struct{}

func newRawReader(Conn, *kernelMetrics, uint64) *rawReader { return nil }

// fill is the raw read; no splitter has a raw reader here, so it reads
// through Conn.Read.
func (s *splitter) fill(wait bool) (ok bool, err error) { return s.readConn(wait) }
