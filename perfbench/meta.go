package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// collectMeta records what a result depends on besides the code under
// test: the Go runtime's view of the machine, the toolchain, the source,
// the CPU, and the cost of the clock read every measured operation pays.
func collectMeta() map[string]any {
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"cpu_model":     cpuModel(),
		"clock_read_ns": clockReadNs(),
		"clients":       clients,
		"workers":       workersPerRun,
	}
}

// commit names the source the benchmark was built from: the VCS revision
// stamped into the binary when it was built inside a repository, else a
// digest of the Go sources and module files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// clockReadNs is the median cost of the clock read every measured
// operation pays (time.Since on a monotonic time) over five batches.
func clockReadNs() float64 {
	const n = 200000
	xs := make([]float64, 5)
	for i := range xs {
		start := time.Now()
		for j := 0; j < n; j++ {
			_ = time.Since(start)
		}
		xs[i] = float64(time.Since(start).Nanoseconds()) / n
	}
	return median(xs)
}
