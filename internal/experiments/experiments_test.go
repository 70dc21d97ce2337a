package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// quickOpts keeps harness tests fast: tiny matrices, few pages, 3 reps
// (Table 2 keeps each variant's fastest).
func quickOpts() Options {
	return Options{
		Scale:       1024,
		Workers:     2,
		PageDoubles: 64,
		Reps:        3,
		Tol:         1e-7,
		Matrices:    []string{"qa8fm", "Dubcova3"},
		Rates:       []int{1, 5},
		Seed:        7,
	}
}

func TestHarmonicMean(t *testing.T) {
	if hm := harmonicMean([]float64{1, 1, 1}); hm != 1 {
		t.Fatalf("hm = %v", hm)
	}
	hm := harmonicMean([]float64{2, 4})
	if hm < 2.66 || hm > 2.67 {
		t.Fatalf("hm = %v, want 8/3", hm)
	}
	// Mixed-sign input falls back to the arithmetic mean.
	if hm := harmonicMean([]float64{-0.01, 0.03}); hm < 0.0099 || hm > 0.0101 {
		t.Fatalf("fallback hm = %v", hm)
	}
	if harmonicMean(nil) != 0 {
		t.Fatal("empty input")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
}

func TestTable2Runs(t *testing.T) {
	res, err := Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Checkpointing must cost more than the forward-recovery methods —
	// a wall-clock comparison the race detector's slowdown invalidates.
	if !raceEnabled {
		byName := map[string]float64{}
		for _, r := range res.Rows {
			byName[r.Method] = r.Overhead
		}
		if byName["ckpt 200"] <= byName["AFEIR"] {
			t.Fatalf("ckpt 200 (%v) should exceed AFEIR (%v)", byName["ckpt 200"], byName["AFEIR"])
		}
	}
	s := res.String()
	if !strings.Contains(s, "Table 2") || !strings.Contains(s, "AFEIR") {
		t.Fatalf("rendering: %s", s)
	}
}

func TestTable3Runs(t *testing.T) {
	res, err := Table3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Method != "AFEIR" || res.Rows[1].Method != "FEIR" {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if !strings.Contains(res.String(), "imbalance") {
		t.Fatal("rendering")
	}
}

func TestFig3Runs(t *testing.T) {
	opts := quickOpts()
	res, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %s empty", s.Method)
		}
		// Converged: final residual well below start.
		last := s.Points[len(s.Points)-1]
		if last.LogRes > -6 {
			t.Fatalf("series %s final log residual %v", s.Method, last.LogRes)
		}
	}
	if !strings.Contains(res.String(), "Figure 3") {
		t.Fatal("rendering")
	}
}

func TestFig4Runs(t *testing.T) {
	opts := quickOpts()
	opts.Matrices = []string{"qa8fm"}
	opts.Rates = []int{1}
	res, err := Fig4(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 5 { // 1 matrix × 1 rate × 5 methods
		t.Fatalf("cells = %d", len(res.Cells))
	}
	if !strings.Contains(res.String(), "Figure 4") {
		t.Fatal("rendering")
	}
}

func TestValidateDistributed(t *testing.T) {
	for _, c := range []struct {
		m       core.Method
		precond bool
	}{{core.MethodIdeal, false}, {core.MethodFEIR, false}, {core.MethodLossy, false}, {core.MethodFEIR, true}} {
		res, err := ValidateDistributed(c.m, 4, 2, c.precond, quickOpts())
		if err != nil {
			t.Fatalf("%v precond=%v: %v", c.m, c.precond, err)
		}
		if !res.Converged {
			t.Fatalf("%v precond=%v: not converged", c.m, c.precond)
		}
		if res.RelResidual > 1e-6 {
			t.Fatalf("%v precond=%v: residual %v", c.m, c.precond, res.RelResidual)
		}
	}
}
