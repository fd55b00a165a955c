//go:build linux

package kernel

import (
	"syscall"
	"testing"
)

// TestTransportGoroutineFootprintTCP is TestTransportGoroutineFootprint
// over 1024 real TCP connections: one goroutine per connection end, each
// parked in the runtime netpoller while idle.
func TestTransportGoroutineFootprintTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("1024 TCP handshakes")
	}
	// Both socket ends live in this process, so the test needs >2 FDs per
	// connection; raise the soft RLIMIT_NOFILE if it has no headroom.
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err == nil && rl.Cur < 4*footprintConns {
		want := uint64(4 * footprintConns)
		if want > rl.Max {
			t.Skipf("RLIMIT_NOFILE hard cap %d too low for %d TCP connections", rl.Max, footprintConns)
		}
		old := rl
		rl.Cur = want
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
			t.Skipf("cannot raise RLIMIT_NOFILE: %v", err)
		}
		t.Cleanup(func() {
			if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
				t.Logf("restore RLIMIT_NOFILE: %v", err)
			}
		})
	}
	testGoroutineFootprint(t, TCPTransport{}, "127.0.0.1:0")
}
