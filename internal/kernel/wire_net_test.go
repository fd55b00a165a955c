package kernel

import (
	"fmt"
	"testing"
)

// TestOpTableReusesAndStaysBounded verifies the serving connection's op
// table: operations a peer alternates among decode without a conversion,
// and naming ever new ones replaces entries instead of growing it.
func TestOpTableReusesAndStaysBounded(t *testing.T) {
	var ops opTable
	put, get := []byte("put"), []byte("get")
	ops.intern(put)
	ops.intern(get)
	if allocs := testing.AllocsPerRun(100, func() {
		if ops.intern(put) != "put" || ops.intern(get) != "get" {
			t.Fatal("op table returned the wrong string")
		}
	}); allocs != 0 {
		t.Errorf("alternating known operations allocates %.1f objects, want 0", allocs)
	}
	for i := 0; i < 100; i++ {
		if got, want := ops.intern([]byte(fmt.Sprint("op", i))), fmt.Sprint("op", i); got != want {
			t.Fatalf("intern(%q) = %q", want, got)
		}
	}
	if ops.intern(put) != "put" {
		t.Error("evicted operation not re-converted")
	}
}
