// Golden corpus for the noalloc analyzer.
package a

import "fmt"

//nexus:noalloc
func warm(buf []byte, n int) ([]byte, error) {
	if n < 0 {
		// Failure-path return: error construction is off the warm region.
		return nil, fmt.Errorf("negative length %d", n)
	}
	buf = append(buf, byte(n)) // self-append reuse: allowed (near miss)
	tmp := make([]byte, n)     // want `make allocates`
	_ = tmp
	return grow(buf), nil
}

// grow is reached transitively from warm: its fresh append is a finding.
func grow(b []byte) []byte {
	return append(b, 0) // want `append outside an .x = append\(x, \.\.\.\). reuse pattern`
}

//nexus:alloc-ok — declared cold helper: the descent stops here.
func coldHelper() []byte {
	return make([]byte, 8)
}

//nexus:noalloc
func warm2(s string, vals []int) {
	_ = s + "!" // want `string concatenation allocates`
	_ = coldHelper()

	n := 0
	// A local closure only ever called does not escape: its body is part
	// of this warm path (near miss for the capture check)...
	bump := func() { n++ }
	bump()

	// ...a capture-free literal passed along costs nothing (near miss)...
	sink(func() int { return 0 })

	// ...but a capturing closure that escapes must materialize its
	// capture record on the heap.
	sink(func() int { return n }) // want `closure captures variables and allocates`

	var f func() int
	f = func() int { return n } // want `closure captures variables and allocates`
	_ = f

	if len(vals) == 0 {
		vals = make([]int, 4) //nexus:coldpath — grow-once branch
	}

	go bump() // want "`go` statement allocates a goroutine"
}

func sink(f func() int) int { return f() }

//nexus:noalloc
func lookup(m map[string]int, b []byte) int {
	// A []byte→string conversion that is directly the key of a map lookup
	// does not allocate (near miss)...
	n := m[string(b)]
	if v, ok := m[string(b)]; ok {
		n += v
	}
	// ...but one that stores the key, or that is not the key itself, does.
	m[string(b)] = n // want `\[\]byte→string conversion allocates`
	key := string(b) // want `\[\]byte→string conversion allocates`
	return n + m[key]
}
