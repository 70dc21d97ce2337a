package engine

import (
	"math"
	"sync/atomic"
)

// Partial is a slice of per-page float64 reduction contributions with
// atomic load/store and missing-slot tracking (NaN encodes "missing").
// Both reduction tasks and concurrent (AFEIR) recovery tasks write it;
// the scalar task sums whatever is present and counts the rest — the
// paper's lost-contribution accounting (§5.4).
type Partial struct {
	bits []atomic.Uint64
}

// NewPartial returns a Partial with n slots (all missing).
func NewPartial(n int) *Partial {
	p := &Partial{bits: make([]atomic.Uint64, n)}
	p.ResetMissing()
	return p
}

var nanBits = math.Float64bits(math.NaN())

// ResetMissing marks every slot as missing.
func (a *Partial) ResetMissing() {
	for i := range a.bits {
		a.bits[i].Store(nanBits)
	}
}

// Store sets slot i.
func (a *Partial) Store(i int, v float64) { a.bits[i].Store(math.Float64bits(v)) }

// Load returns slot i.
func (a *Partial) Load(i int) float64 { return math.Float64frombits(a.bits[i].Load()) }

// Missing reports whether slot i has no contribution.
func (a *Partial) Missing(i int) bool {
	return math.IsNaN(math.Float64frombits(a.bits[i].Load()))
}

// Len returns the number of slots.
func (a *Partial) Len() int { return len(a.bits) }

// SumAvailable returns the sum of present slots and the count of missing
// ones.
func (a *Partial) SumAvailable() (sum float64, missing int) {
	for i := range a.bits {
		v := math.Float64frombits(a.bits[i].Load())
		if math.IsNaN(v) {
			missing++
			continue
		}
		sum += v
	}
	return sum, missing
}
