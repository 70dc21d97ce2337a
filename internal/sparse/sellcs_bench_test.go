package sparse

import (
	"fmt"
	"testing"
)

func benchSpMV(b *testing.B, a *CSR) {
	x := randVec(a.N, 1)
	y := make([]float64, a.N)
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVecRange(x, y, 0, a.N)
	}
}

// shortRowSizes: 4,096 rows keep x (32 KB) in L1, the shape of serve-mix's
// short class; 40,000 rows put x (320 KB) in L2.
var shortRowSizes = []int{4096, 40000}

func BenchmarkSpMVShortRowSELL(b *testing.B) {
	for _, n := range shortRowSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randShortRowCSR(n, 1)
			if a.ShadowName() != "sell" {
				b.Fatalf("shadow %s", a.ShadowName())
			}
			benchSpMV(b, a)
		})
	}
}

func BenchmarkSpMVShortRowCSR32(b *testing.B) {
	for _, n := range shortRowSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randShortRowCSR(n, 1)
			a.DisableShadow("sell")
			benchSpMV(b, a)
		})
	}
}
