//go:build !linux

package kernel

// newTCPReader reports that the raw reader does not build on this
// platform: TCP connection ends are read through tcpConn.Recv.
func newTCPReader(*tcpConn, *kernelMetrics, uint64) frameReader { return nil }
