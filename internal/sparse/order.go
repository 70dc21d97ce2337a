package sparse

import (
	"cmp"
	"math"
	"slices"
)

// Symmetric reordering of a diagonal block before it is factored. A page
// of a 2-D grid is a strip a few grid rows tall, so in natural order its
// band is the grid's width; numbered breadth-first from one end of the
// strip (reverse Cuthill–McKee: Cuthill & McKee 1969; George & Liu,
// Computer Solution of Large Sparse Positive Definite Systems, 1981) its
// band is the strip's height. The factor of P A Pᵀ is still the exact
// factor of the block — its unknowns are only renumbered — so it serves
// the block-Jacobi apply and the inverse relations alike.

// order is a symmetric permutation of a block, row k of P A Pᵀ being row
// p[k] of A. It is kept as its nontrivial cycles k, p[k], p[p[k]], …,
// concatenated, the first entry of each stored complemented (^k < 0), so
// a solve moves its right-hand side in and out in place, with no scratch
// and nothing written to the factor. The identity is the empty order.
type order []int32

// newOrder returns the cycles of the permutation p.
func newOrder(p []int32) order {
	var o order
	seen := make([]bool, len(p))
	for k0 := range p {
		if seen[k0] || int(p[k0]) == k0 {
			continue
		}
		o = append(o, ^int32(k0))
		seen[k0] = true
		for k := p[k0]; int(k) != k0; k = p[k] {
			o = append(o, k)
			seen[k] = true
		}
	}
	return o
}

// gather overwrites b with P b: b[k] becomes b[p[k]].
//
//due:hotpath
func (o order) gather(b []float64) {
	for s := 0; s < len(o); {
		k := ^o[s]
		first := b[k]
		for s++; s < len(o) && o[s] >= 0; s++ {
			b[k] = b[o[s]]
			k = o[s]
		}
		b[k] = first
	}
}

// scatter overwrites b with Pᵀ b: b[p[k]] becomes b[k].
//
//due:hotpath
func (o order) scatter(b []float64) {
	for s := 0; s < len(o); {
		k0 := ^o[s]
		carry := b[k0]
		for s++; s < len(o) && o[s] >= 0; s++ {
			carry, b[o[s]] = b[o[s]], carry
		}
		b[k0] = carry
	}
}

// renumbered returns the block in reverse Cuthill–McKee order — the rows
// of P A Pᵀ, read through rows — and that order.
func renumbered(n int, rows blockRows) (blockRows, order) {
	p, inv := rcm(n, rows)
	// One visitor renumbers every row: a factor reads its rows one at a
	// time, never nested.
	var visit func(j int, v float64)
	renumber := func(j int, v float64) { visit(int(inv[j]), v) }
	prows := func(k int, f func(j int, v float64)) {
		visit = f
		rows(int(p[k]), renumber)
	}
	return prows, newOrder(p)
}

// smaller returns the block to factor: renumbered when that makes the
// factor strictly smaller, counting the order's own bytes, and natural
// otherwise. size is the factor's bytes at half-bandwidths kl and ku.
func smaller(nat, ren banded, size func(kl, ku int) int64) banded {
	if size(ren.kl, ren.ku)+4*int64(len(ren.o)) < size(nat.kl, nat.ku) {
		return ren
	}
	return nat
}

// symmetric reports whether a block's values are symmetric, a_ij = a_ji.
// Cholesky reads only the lower triangle, so a block claimed SPD that is
// not symmetric is factored in its natural order, where the §2.3 chain
// falls through to LU exactly as it would without renumbering; in another
// order its lower triangle holds different entries. Each nonzero off the
// diagonal is hashed with its position mirrored into the upper triangle,
// the upper ones added and the lower ones subtracted: a symmetric block
// sums to 0, any other only by a 64-bit hash collision.
func symmetric(n int, rows blockRows) bool {
	var sum uint64
	entries(n, rows, func(i, j int, v float64) {
		switch {
		case v == 0:
		case j > i:
			sum += entryHash(i, j, v)
		case j < i:
			sum -= entryHash(j, i, v)
		}
	})
	return sum == 0
}

// entryHash mixes an entry's position and value bits (splitmix64's
// finaliser, twice).
func entryHash(i, j int, v float64) uint64 {
	return mix(mix(uint64(i)<<32|uint64(j)) ^ math.Float64bits(v))
}

func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// rcm numbers a block's graph — an edge from each row to the columns of
// its entries — in reverse Cuthill–McKee order: each part of the graph
// breadth-first from a pseudo-peripheral row (George & Liu's search: the
// lowest-degree row of the last level, until the level count stops
// growing), the rows of a level by the position of the first row that
// reached them, then by degree, and the whole numbering reversed. It
// returns p (row k of the result is row p[k]) and its inverse. The work
// space is four n-vectors: the rows are read through the visitor, never
// copied into adjacency lists. A pattern that is not symmetric is walked
// along its rows only — the order is a bijection all the same, and
// smaller keeps it only if it pays.
func rcm(n int, rows blockRows) (p, inv []int32) {
	p, inv = make([]int32, n), make([]int32, n)
	deg, key := make([]int32, n), make([]int32, n) // key: position of the first row that reached this one
	entries(n, rows, func(i, j int, _ float64) {
		if j != i {
			deg[i]++
			deg[j]++
		}
	})
	for i := range inv {
		inv[i] = -1
	}
	// Expanding a level that ends at position hi of p appends the rows it
	// reaches at end, each keyed by the position of its first reacher.
	var hi, end, from int
	reach := func(j int, _ float64) {
		switch {
		case inv[j] < 0:
			p[end], inv[j], key[j] = int32(j), int32(end), int32(from)
			end++
		case int(inv[j]) >= hi:
			key[j] = min(key[j], int32(from))
		}
	}
	byReach := func(a, b int32) int {
		return cmp.Or(cmp.Compare(key[a], key[b]), cmp.Compare(deg[a], deg[b]), cmp.Compare(a, b))
	}
	// levels numbers the rows root reaches breadth-first from position
	// start: it returns the number of levels and where the last starts;
	// end is where the numbering ends.
	levels := func(root, start int) (depth, last int) {
		p[start], inv[root] = int32(root), int32(start)
		end = start + 1
		for lo := start; lo < end; lo = hi {
			hi = end
			depth, last = depth+1, lo
			for from = lo; from < hi; from++ {
				rows(int(p[from]), reach)
			}
			next := p[hi:end]
			slices.SortFunc(next, byReach)
			for q, j := range next {
				inv[j] = int32(hi + q)
			}
		}
		return depth, last
	}
	for k := 0; k < n; k = end {
		root := -1
		for i, q := range inv {
			if q < 0 && (root < 0 || deg[i] < deg[root]) {
				root = i
			}
		}
		depth, last := levels(root, k)
		for {
			far := p[last]
			for _, j := range p[last:end] {
				if deg[j] < deg[far] {
					far = j
				}
			}
			for _, j := range p[k:end] {
				inv[j] = -1
			}
			// far is at least as eccentric as the row it was found from:
			// its numbering stands unless it is strictly more so.
			d, l := levels(int(far), k)
			if d <= depth {
				break
			}
			depth, last = d, l
		}
	}
	slices.Reverse(p)
	for k, j := range p {
		inv[j] = int32(k)
	}
	return p, inv
}
