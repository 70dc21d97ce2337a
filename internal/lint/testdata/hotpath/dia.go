// Fixture for the hotpath-alloc analyzer: the grouped diagonal-shadow
// shapes (a stack array of per-diagonal slice views handed to the group
// bodies by pointer, a switch over the group width whose every case cuts
// its slices to one length and keeps the row sum in a register, the
// partials riding the last group, a fixed-size array literal for the two
// edge ranges of a clipped block) must lint clean, and gathering a
// group's views into a fresh slice per block must be caught.
package hot

const group = 2

type diaShadow struct {
	n    int
	offs []int
	vals [][]float64
}

//due:hotpath
func clip(oLo, oHi, r0, r1, n int) (i0, i1 int) {
	i0 = min(max(r0, -oLo), r1)
	return i0, max(i0, min(r1, n-oHi))
}

// blockMul mirrors the DIA block kernel for the groups after the first:
// ascending offset order, the last carrying the partials, the rows a
// group does not cover whole taken diagonal by diagonal.
//
//due:hotpath
func (a *diaShadow) blockMul(x, y, w []float64, b0, b1 int, wy float64) float64 {
	var vs, xs [group][]float64
	for d := group; d < len(a.offs); d += group {
		g := min(group, len(a.offs)-d)
		i0, i1 := clip(a.offs[d], a.offs[d+g-1], b0, b1, a.n)
		if i0 < i1 {
			for j, o := range a.offs[d : d+g] {
				vs[j], xs[j] = a.vals[d+j][i0:i1], x[i0+o:i1+o]
			}
			if d+g == len(a.offs) && i0 == b0 && i1 == b1 {
				wy = accumDot(y[i0:i1], w[i0:i1], &vs, &xs, g, wy)
			} else {
				accum(y[i0:i1], &vs, &xs, g)
			}
		}
		if i0 == b0 && i1 == b1 {
			continue
		}
		for j, o := range a.offs[d : d+g] {
			for _, r := range [2][2]int{{b0, i0}, {i1, b1}} {
				if e0, e1 := clip(o, o, r[0], r[1], a.n); e0 < e1 {
					vs[0], xs[0] = a.vals[d+j][e0:e1], x[e0+o:e1+o]
					accum(y[e0:e1], &vs, &xs, 1)
				}
			}
		}
	}
	return wy
}

// accum and accumDot mirror two of the three bodies of a group (the
// third starts its sums from 0.0 instead of y), each written out per
// width.
//
//due:hotpath
func accum(y []float64, vs, xs *[group][]float64, g int) {
	m := len(y)
	switch g {
	case 1:
		v0, x0 := vs[0][:m], xs[0][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			y[k] = s
		}
	case 2:
		v0, v1, x0, x1 := vs[0][:m], vs[1][:m], xs[0][:m], xs[1][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			y[k] = s
		}
	}
}

//due:hotpath
func accumDot(y, w []float64, vs, xs *[group][]float64, g int, wy float64) float64 {
	m := len(y)
	w = w[:m]
	switch g {
	case 1:
		v0, x0 := vs[0][:m], xs[0][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			y[k] = s
			wy += s * w[k]
		}
	case 2:
		v0, v1, x0, x1 := vs[0][:m], vs[1][:m], xs[0][:m], xs[1][:m]
		for k, s := range y {
			s += v0[k] * x0[k]
			s += v1[k] * x1[k]
			y[k] = s
			wy += s * w[k]
		}
	}
	return wy
}

// blockMulBad seeds the tempting violation: collecting the group's
// views with make allocates once per block per group.
//
//due:hotpath
func (a *diaShadow) blockMulBad(x, y []float64, b0, b1 int) {
	for d := 0; d < len(a.offs); d += group {
		g := min(group, len(a.offs)-d)
		vs := make([][]float64, g) // want "make allocates"
		for j := range vs {
			vs[j] = a.vals[d+j][b0:b1]
		}
		for k := b0; k < b1; k++ {
			s := y[k]
			for j, v := range vs {
				s += v[k-b0] * x[k+a.offs[d+j]]
			}
			y[k] = s
		}
	}
}
