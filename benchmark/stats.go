package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-th percentile (0..100) of xs by the
// nearest-rank method; xs need not be sorted. 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, the quartiles computed as Python's
// statistics.quantiles(xs, n=4) does — the spread the benchmark's bounds
// are judged against. 0 with fewer than two values.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	d := quart(3) - quart(1)
	if med < 0 {
		med = -med
	}
	return d / med
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeCall returns the wall time of the quickest of reps calls of f. On
// a shared host interference only ever adds time, and it comes in
// episodes longer than any probe, so the minimum is the estimate that
// repeats; a median of back-to-back calls reads whichever episode the
// probe fell into.
func timeCall(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		best = min(best, time.Since(t))
	}
	return best
}

// splitRows cuts [0, n) into one page-aligned contiguous range per
// worker, the same strip-mining the engine applies.
func splitRows(n, page, workers int) [][2]int {
	np := (n + page - 1) / page
	var out [][2]int
	for w := 0; w < workers; w++ {
		lo, hi := w*np/workers*page, (w+1)*np/workers*page
		if hi > n {
			hi = n
		}
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// kernelPass times one pass of a range kernel at the workload's worker
// count: one goroutine per range runs fn over its range `inner` times
// back to back, so scheduling cost is amortised away and what remains is
// the kernel with its neighbours' memory traffic. Quickest of 9 rounds,
// per pass.
func kernelPass(ranges [][2]int, inner int, fn func(lo, hi int)) time.Duration {
	return timeCall(9, func() {
		var wg sync.WaitGroup
		for _, r := range ranges {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for k := 0; k < inner; k++ {
					fn(lo, hi)
				}
			}(r[0], r[1])
		}
		wg.Wait()
	}) / time.Duration(inner)
}

// gbs converts computed bytes moved in d to GB/s.
func gbs(bytes float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return bytes / d.Seconds() / 1e9
}

// The timing metrics of a run are taken block by block: the verified
// operations, in the order they ran, are cut into up to maxBlocks
// consecutive blocks of at least minBlock, the statistic is taken inside
// each block, and the run reports the median over the blocks. On the
// shared reference host a neighbour holds part of the core for seconds at
// a time; a burst that covers a tenth of a run moves the run's plain 90th
// percentile to the burst's level, and does not move the median of eight
// blocks' 90th percentiles unless it covers half of them. The price: a
// program that stalls in rare bursts of its own looks the same as the
// neighbour, and is seen only once its stalls reach most blocks.
const (
	maxBlocks = 8
	minBlock  = 20
)

// blocks returns the bounds of the consecutive blocks n values are cut
// into.
func blocks(n int) [][2]int {
	b := min(max(n/minBlock, 1), maxBlocks)
	out := make([][2]int, b)
	for k := range out {
		out[k] = [2]int{k * n / b, (k + 1) * n / b}
	}
	return out
}

// blockPercentile is the median over the blocks of xs (in time order) of
// the block's q-th percentile.
func blockPercentile(xs []float64, q float64) float64 {
	var per []float64
	for _, b := range blocks(len(xs)) {
		per = append(per, percentile(xs[b[0]:b[1]], q))
	}
	return median(per)
}

// throughput is verified operations over the wall time they took, as the
// clients saw it: ok is in start order, a block lasts from its first
// start to the next block's (the last one to its last end), and the run
// reports the median over the blocks.
func throughput(ok []opRecord) float64 {
	var per []float64
	bs := blocks(len(ok))
	for k, b := range bs {
		if b[0] == b[1] {
			continue
		}
		var until time.Time
		if k+1 < len(bs) {
			until = ok[b[1]].start
		} else {
			for _, r := range ok[b[0]:b[1]] {
				if r.end.After(until) {
					until = r.end
				}
			}
		}
		per = append(per, float64(b[1]-b[0])/until.Sub(ok[b[0]].start).Seconds())
	}
	return median(per)
}
