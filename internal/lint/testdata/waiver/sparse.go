// Fixture for the waiver grammar: //due:allow(<check>) suppresses
// exactly its named check on its node, and nothing else.
package sparse

import "time"

// stamp's no-wallclock-rand violation is waived: no diagnostic.
//
//due:allow(no-wallclock-rand) fixture: a timestamp no kernel result depends on
func stamp() time.Time {
	return time.Now()
}

// hot carries the same waiver, which must NOT leak onto the
// hotpath-alloc violation sharing the function.
//
//due:hotpath
//due:allow(no-wallclock-rand) fixture: the waiver must not leak across checks
func hot(n int) []float64 {
	buf := make([]float64, n) // want "make allocates"
	_ = time.Now()
	return buf
}
