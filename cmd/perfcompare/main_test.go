package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGolden summarizes testdata/runs against testdata/BENCHMARK.json and
// compares the report with testdata/stdout.txt. The runs cover a pair
// whose working-tree run printed no result (it is listed, and left out
// of the medians and the pairs won), a tie (it wins for neither tree),
// failed operations, per-layer counts, and a pair numbered 10, which
// sorts after pair 3.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run("testdata/BENCHMARK.json", "testdata/runs", &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from testdata/stdout.txt:\n%s", out.Bytes())
	}
}

// TestNoRuns rejects a directory without runs.
func TestNoRuns(t *testing.T) {
	if err := run("testdata/BENCHMARK.json", t.TempDir(), &bytes.Buffer{}); err == nil {
		t.Fatal("no error for a directory without runs")
	}
}
