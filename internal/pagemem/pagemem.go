// Package pagemem implements the paper's memory-page fault model (§2.1,
// §3.3.2, §5.3). Solver vectors live in a Space that partitions them into
// 4 KiB pages (512 float64 values). A Detected-and-Uncorrected Error (DUE)
// poisons one page of one vector: the data is lost (overwritten with NaN to
// model the fresh blank page the OS maps at the same virtual address) and
// the page's bit in an atomic per-page bitmask is set.
//
// The bitmask mirrors the paper's implementation exactly: "we maintain an
// atomic bitmask (e.g. an int) per block of failure granularity, thus per
// memory page. Each data vector and task output is represented by a bit in
// this mask." Tasks check the mask for the pages they touch, skip
// computation on failed input and propagate the failure to their output's
// bit; recovery tasks clear bits after interpolating replacement data.
//
// Poisoning is split in two to mirror detect-on-access semantics without
// data races: an injector (a solve's fault site, see inject) calls
// Vector.Poison, which atomically sets the fault bit at once (tasks
// checking the mask from then on skip the page — this is the detection)
// and enqueues the data loss. The solver
// calls Space.ScramblePending at task-phase boundaries, where no task is
// touching vector data, to actually destroy the content of pages that are
// still marked failed. Tasks that passed their mask check before the bit
// was set complete with the pre-fault data, which is numerically identical
// to the fault having arrived just after their access — a pure timing
// shift. Deterministic tests can use PoisonNow.
package pagemem

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sparse"
)

// PageBytes is the hardware memory page size assumed by the fault model.
const PageBytes = 4096

// DefaultPageDoubles is the number of float64 values per page: the paper's
// recovery granularity of 512 double-precision values (§2.3).
const DefaultPageDoubles = PageBytes / 8

// MaxVectors is the number of protectable vectors per Space, bounded by the
// 64 bits of the per-page atomic mask.
const MaxVectors = 64

// FaultEvent describes one injected or detected DUE.
type FaultEvent struct {
	Vector string // vector name
	VecID  int    // bit index
	Page   int    // page index within the vector
}

// Space is a fault domain: a set of equally sized vectors sharing a page
// layout and per-page atomic fault bitmasks.
type Space struct {
	n             int
	layout        sparse.BlockLayout
	masks         []atomic.Uint64
	vectors       []*Vector
	faults        atomic.Int64
	onFault       atomic.Pointer[func(FaultEvent)]
	poisonWithNaN bool

	pendMu     sync.Mutex
	pending    []FaultEvent
	sdcPending []SilentFlip

	sdcInjected atomic.Int64
	sdcDetected atomic.Int64
}

// NewSpace creates a fault domain for vectors of length n with the given
// page size in doubles (0 means DefaultPageDoubles).
func NewSpace(n, pageDoubles int) *Space {
	if pageDoubles <= 0 {
		pageDoubles = DefaultPageDoubles
	}
	layout := sparse.BlockLayout{N: n, BlockSize: pageDoubles}
	return &Space{
		n:             n,
		layout:        layout,
		masks:         make([]atomic.Uint64, layout.NumBlocks()),
		poisonWithNaN: true,
	}
}

// N returns the vector length of the space.
func (s *Space) N() int { return s.n }

// Layout returns the page layout shared by all vectors of the space.
func (s *Space) Layout() sparse.BlockLayout { return s.layout }

// NumPages returns the number of pages per vector.
func (s *Space) NumPages() int { return s.layout.NumBlocks() }

// SetOnFault installs a callback invoked synchronously from Poison for
// every injected fault. It must be safe for concurrent use. Pass nil to
// remove.
func (s *Space) SetOnFault(fn func(FaultEvent)) {
	if fn == nil {
		s.onFault.Store(nil)
		return
	}
	s.onFault.Store(&fn)
}

// SetPoisonWithNaN controls whether poisoning scrambles data with NaN
// (default true). Disabling it models scrubbing-detected errors where the
// page is remapped to zeros before any access.
func (s *Space) SetPoisonWithNaN(b bool) { s.poisonWithNaN = b }

// Vector is one protected solver vector: contiguous data plus an identity
// bit in the space's per-page masks.
type Vector struct {
	space *Space
	id    int
	name  string
	Data  []float64

	// ABFT page checksums (abft.go): nil unless EnableChecksums was
	// called. cks[p] holds the XOR-of-bits checksum of page p, valid only
	// while ckOK[p] is set.
	cks  []atomic.Uint64
	ckOK []atomic.Bool
}

// AddVector registers a new protected vector. It panics beyond MaxVectors
// (the paper's bitmask has the same bound).
func (s *Space) AddVector(name string) *Vector {
	if len(s.vectors) >= MaxVectors {
		panic(fmt.Sprintf("pagemem: too many vectors (max %d)", MaxVectors))
	}
	v := &Vector{space: s, id: len(s.vectors), name: name, Data: make([]float64, s.n)}
	s.vectors = append(s.vectors, v)
	return v
}

// Vectors returns the registered vectors in registration order.
func (s *Space) Vectors() []*Vector { return s.vectors }

// VectorByName returns the named vector or nil.
func (s *Space) VectorByName(name string) *Vector {
	for _, v := range s.vectors {
		if v.name == name {
			return v
		}
	}
	return nil
}

// Name returns the vector's registration name.
func (v *Vector) Name() string { return v.name }

// ID returns the vector's bit index in the page masks.
func (v *Vector) ID() int { return v.id }

// Space returns the owning fault domain.
func (v *Vector) Space() *Space { return v.space }

// PageRange returns the element range [lo, hi) of page p.
func (v *Vector) PageRange(p int) (int, int) { return v.space.layout.Range(p) }

// Poison injects a DUE into page p of the vector: the fault bit is set
// immediately and atomically (detection — tasks checking the mask from now
// on skip the page), the fault counter incremented, the OnFault hook fired
// and the data loss enqueued for the next ScramblePending. Safe to call
// from any goroutine.
func (v *Vector) Poison(p int) {
	s := v.space
	lo, hi := s.layout.Range(p)
	if lo >= hi {
		panic(fmt.Sprintf("pagemem: poison of empty page %d", p))
	}
	ev := FaultEvent{Vector: v.name, VecID: v.id, Page: p}
	// The page content is doomed (scramble, remap or recovery overwrite
	// follow): forget its ABFT checksum so no stale-valid checksum can
	// survive a restart-style mask clear.
	v.InvalidateChecksum(p)
	s.masks[p].Or(1 << uint(v.id))
	s.faults.Add(1)
	s.pendMu.Lock()
	s.pending = append(s.pending, ev)
	s.pendMu.Unlock()
	if fn := s.onFault.Load(); fn != nil {
		(*fn)(ev)
	}
}

// PoisonNow injects a DUE and immediately destroys the page data:
// convenience for single-threaded deterministic tests. It scrambles ALL
// pending pages.
func (v *Vector) PoisonNow(p int) {
	v.Poison(p)
	v.space.ScramblePending()
}

// PendingCount returns the number of enqueued, not-yet-scrambled faults.
func (s *Space) PendingCount() int {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	return len(s.pending)
}

// ScramblePending destroys the data of every enqueued fault whose page is
// STILL marked failed (pages already recovered keep their interpolated
// replacement). It must be called from a point where no task concurrently
// touches vector data — a task-phase boundary — modelling the moment the
// poisoned page's content is gone for good. Returns the processed events.
func (s *Space) ScramblePending() []FaultEvent {
	// Silent flips model corruption of data at rest: apply them at the
	// same boundary, before the DUE scrambles (a DUE on the same page
	// destroys the flipped content anyway).
	s.ApplySilentPending()
	s.pendMu.Lock()
	evs := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	for _, e := range evs {
		if s.masks[e.Page].Load()&(1<<uint(e.VecID)) == 0 {
			continue // recovered before the content was ever read
		}
		v := s.vectors[e.VecID]
		lo, hi := s.layout.Range(e.Page)
		if s.poisonWithNaN {
			nan := math.NaN()
			for i := lo; i < hi; i++ {
				v.Data[i] = nan
			}
		} else {
			for i := lo; i < hi; i++ {
				v.Data[i] = 0
			}
		}
	}
	return evs
}

// Remap replaces the lost page with a fresh zeroed page at the same
// location (the SIGBUS handler's mmap in the paper) WITHOUT clearing the
// fault bit: the data is still not valid, merely accessible. Trivial
// recovery stops here; exact recoveries interpolate then MarkRecovered.
func (v *Vector) Remap(p int) {
	lo, hi := v.space.layout.Range(p)
	for i := lo; i < hi; i++ {
		v.Data[i] = 0
	}
	v.InvalidateChecksum(p)
}

// MarkFailed sets the fault bit for page p without touching data: used to
// propagate skipped-computation status from inputs to outputs (§3.3.2).
func (v *Vector) MarkFailed(p int) {
	v.space.masks[p].Or(1 << uint(v.id))
}

// MarkRecovered clears the fault bit for page p after replacement data has
// been interpolated (or recomputed) into it. The page's ABFT checksum (if
// any) is forgotten: the rebuilt content is trusted, and verification
// skips the page until a checksum-carrying producer covers it again.
func (v *Vector) MarkRecovered(p int) {
	v.space.masks[p].And(^uint64(1 << uint(v.id)))
	v.InvalidateChecksum(p)
}

// Failed reports whether page p of this vector is currently invalid.
func (v *Vector) Failed(p int) bool {
	return v.space.masks[p].Load()&(1<<uint(v.id)) != 0
}

// AnyFailedInRange reports whether any page overlapping the element range
// [lo, hi) is invalid for this vector.
func (v *Vector) AnyFailedInRange(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	pLo := v.space.layout.BlockOf(lo)
	pHi := v.space.layout.BlockOf(hi - 1)
	bit := uint64(1) << uint(v.id)
	for p := pLo; p <= pHi; p++ {
		if v.space.masks[p].Load()&bit != 0 {
			return true
		}
	}
	return false
}

// FailedPages returns the indices of this vector's currently invalid pages.
func (v *Vector) FailedPages() []int {
	var out []int
	bit := uint64(1) << uint(v.id)
	for p := range v.space.masks {
		if v.space.masks[p].Load()&bit != 0 {
			out = append(out, p)
		}
	}
	return out
}

// AnyFailed reports whether the vector has any invalid page.
func (v *Vector) AnyFailed() bool {
	bit := uint64(1) << uint(v.id)
	for p := range v.space.masks {
		if v.space.masks[p].Load()&bit != 0 {
			return true
		}
	}
	return false
}

// PageMask returns the raw fault mask of page p (bit i = vector i failed).
func (s *Space) PageMask(p int) uint64 { return s.masks[p].Load() }

// AnyFault reports whether any page of any vector is invalid.
func (s *Space) AnyFault() bool {
	for p := range s.masks {
		if s.masks[p].Load() != 0 {
			return true
		}
	}
	return false
}

// FaultCount returns the total number of applied faults so far.
func (s *Space) FaultCount() int64 { return s.faults.Load() }

// ClearAll resets every fault bit and drops pending faults (used when a
// restart-style recovery rebuilds all dynamic data from scratch).
func (s *Space) ClearAll() {
	s.pendMu.Lock()
	s.pending = nil
	s.pendMu.Unlock()
	for p := range s.masks {
		s.masks[p].Store(0)
	}
}

// AnyFailedInPages reports whether any of the listed pages is invalid for
// this vector.
func (v *Vector) AnyFailedInPages(pages []int) bool {
	bit := uint64(1) << uint(v.id)
	for _, p := range pages {
		if v.space.masks[p].Load()&bit != 0 {
			return true
		}
	}
	return false
}

// AnyFailedInPagesExcept is AnyFailedInPages skipping one page index.
func (v *Vector) AnyFailedInPagesExcept(pages []int, skip int) bool {
	bit := uint64(1) << uint(v.id)
	for _, p := range pages {
		if p == skip {
			continue
		}
		if v.space.masks[p].Load()&bit != 0 {
			return true
		}
	}
	return false
}
