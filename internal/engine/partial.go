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

// PartialBlock is a Partial with w float64 slots per page: the reduction
// buffer of a fused BLOCK reduction, where one pass produces a whole
// vector of inner products (one per column of a batched solve) instead
// of one scalar. A page's w slots are written together by its page task
// (StoreRow) and summed page-ascending per slot by the coordinator, so
// every slot's accumulation order is as deterministic as Partial's.
type PartialBlock struct {
	w    int
	bits []atomic.Uint64
}

// NewPartialBlock returns a PartialBlock with n pages of w slots (all
// missing).
func NewPartialBlock(n, w int) *PartialBlock {
	b := &PartialBlock{w: w, bits: make([]atomic.Uint64, n*w)}
	b.ResetMissing()
	return b
}

// Width returns the number of slots per page.
func (b *PartialBlock) Width() int { return b.w }

// ResetMissing marks every page as missing.
func (b *PartialBlock) ResetMissing() {
	for i := range b.bits {
		b.bits[i].Store(nanBits)
	}
}

// Missing reports whether page p's row has not been stored since the
// last reset (rows are stored whole, so slot 0 stands for the row).
func (b *PartialBlock) Missing(p int) bool {
	return math.IsNaN(math.Float64frombits(b.bits[p*b.w].Load()))
}

// StoreRow sets page p's w slots from vals.
func (b *PartialBlock) StoreRow(p int, vals []float64) {
	base := p * b.w
	for k := 0; k < b.w; k++ {
		b.bits[base+k].Store(math.Float64bits(vals[k]))
	}
}

// SumAvailable accumulates every present page's row into out (out[k] +=
// Σ_p row[p][k], pages ascending) and returns the count of missing pages
// (a page is missing when its slot 0 is — rows are stored whole). out
// must have length w and arrive zeroed (or carrying a partial sum to
// continue).
func (b *PartialBlock) SumAvailable(out []float64) (missing int) {
	np := len(b.bits) / b.w
	for p := 0; p < np; p++ {
		base := p * b.w
		if math.IsNaN(math.Float64frombits(b.bits[base].Load())) {
			missing++
			continue
		}
		for k := 0; k < b.w; k++ {
			out[k] += math.Float64frombits(b.bits[base+k].Load())
		}
	}
	return missing
}
