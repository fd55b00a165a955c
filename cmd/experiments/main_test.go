package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden converts testdata/bench.txt (-count 3, -cpu 1,4, a custom
// unit) over a previous BENCH_net.json (testdata/BENCH_net.prev.json) and
// compares the BENCH file and the standard output — the report of units
// outside the previous file's min–max, then the tables — with the
// committed golden output. Only groups present in the input are written.
func TestGolden(t *testing.T) {
	in, err := os.Open("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	dir := t.TempDir()
	prev, err := os.ReadFile("testdata/BENCH_net.prev.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_net.json"), prev, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(in, &out, dir); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 1 || written[0].Name() != "BENCH_net.json" {
		t.Fatalf("wrote %v, want only BENCH_net.json", written)
	}
	for _, c := range []struct{ got, golden string }{
		{filepath.Join(dir, "BENCH_net.json"), "testdata/BENCH_net.json"},
		{"", "testdata/stdout.txt"},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Bytes()
		if c.got != "" {
			if got, err = os.ReadFile(c.got); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs:\n%s", c.golden, got)
		}
	}
}

// TestRejectsUnparsedLines: a line that is not go test output, such as a
// failed benchmark, is an error rather than a dropped row.
func TestRejectsUnparsedLines(t *testing.T) {
	for _, line := range []string{
		"BenchmarkNet/call/local-2   	--- FAIL: BenchmarkNet/call/local-2",
		"BenchmarkNet/call/local-2   	100	12 ns/op	0",
		"BenchmarkNet/call/local-2   	100	twelve ns/op",
		"--- FAIL: BenchmarkNet",
		"FAIL	repro	1.2s",
		"panic: boom",
	} {
		in := strings.NewReader("goos: linux\n" + line + "\nPASS\n")
		if err := run(in, &bytes.Buffer{}, t.TempDir()); err == nil {
			t.Errorf("%q: accepted", line)
		}
	}
}
