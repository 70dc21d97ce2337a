package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"text/tabwriter"
)

// resultSet is the end-to-end results of repeated runs of every workload
// on one commit and one host: what -compare sets against another.
type resultSet struct {
	Provenance provenance `json:"provenance"`
	// Seconds is the measuring time of every run of the set: runs of
	// different length are not the same measurement.
	Seconds float64             `json:"seconds"`
	Runs    map[string][]setRun `json:"runs"` // workload -> runs in the order made
}

type setRun struct {
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
}

// loadSet reads a set file; one that does not exist yet is an empty set
// of this host.
func loadSet(path string, seconds float64) (*resultSet, error) {
	s := &resultSet{Provenance: collectProvenance(0), Seconds: seconds, Runs: map[string][]setRun{}}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// add appends one run. A child that crashed or printed no result is
// added as a run that attempted nothing, so that it is not simply absent
// from the set.
func (s *resultSet) add(workload string, seed int64, res result) {
	run := setRun{Seed: seed, Attempted: res.Attempted, Failed: res.Failed, Values: map[string]float64{}}
	for name, v := range res.Metrics {
		run.Values[name] = v.Value
	}
	s.Runs[workload] = append(s.Runs[workload], run)
}

func (s *resultSet) save(path string) error {
	raw, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// values lists one metric over the runs of a workload that reported it.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs[workload] {
		if v, ok := r.Values[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// operations sums attempted and failed operations over a workload's runs
// and counts the runs that attempted nothing.
func (s *resultSet) operations(workload string) (attempted, failed, dead int) {
	for _, r := range s.Runs[workload] {
		attempted, failed = attempted+r.Attempted, failed+r.Failed
		if r.Attempted == 0 {
			dead++
		}
	}
	return
}

// Exit codes of -compare.
const (
	compareOK         = 0
	compareRegression = 1 // B is worse than A beyond a bound, fails more, or lacks a run A has
	compareRefused    = 2 // the sets cannot be compared at all
	compareUnresolved = 3 // no regression, but a spread exceeds its bound
)

// compareSets prints, per workload and end-to-end metric, both medians,
// how much worse B is than A, the bound, each set's own spread, and of
// the runs the sets share a seed for how many B won. Verdicts: a metric
// whose run-to-run spread in either set exceeds its bound is unresolved,
// not unchanged; B worse by more than the bound is a REGRESSION; B is
// called a gain only when it wins nine tenths of the pairs and the
// medians differ by more than A's own spread. A metric or workload one
// set lacks, a run that attempted nothing and a larger share of failed
// operations in B are regressions whatever the timings say.
func compareSets(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadSet(pathA, 0)
	b, errB := loadSet(pathB, 0)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return compareRefused
	}
	if a.Provenance.NProc != b.Provenance.NProc {
		fmt.Fprintf(stderr, "benchmark: refusing to compare nproc %d with nproc %d\n", a.Provenance.NProc, b.Provenance.NProc)
		return compareRefused
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(stderr, "benchmark: refusing to compare runs of %g s with runs of %g s\n", a.Seconds, b.Seconds)
		return compareRefused
	}
	for _, w := range spec.workloadNames() {
		if na, nb := len(a.Runs[w]), len(b.Runs[w]); na < 2 || nb < 2 {
			fmt.Fprintf(stderr, "benchmark: %s has %d and %d runs; a spread needs at least 2 on each side\n", w, na, nb)
			return compareRefused
		}
	}
	if a.Provenance.Degraded || b.Provenance.Degraded {
		fmt.Fprintln(stdout, "DEGRADED: a set was taken with GOMAXPROCS 1")
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tbound\tspread A\tspread B\tB wins\tverdict\t")
	regressions, unresolved := 0, 0
	for _, w := range spec.workloadNames() {
		for _, d := range spec.EndToEnd {
			va, vb := a.values(w, d.Name), b.values(w, d.Name)
			if len(va) < len(a.Runs[w]) || len(vb) < len(b.Runs[w]) {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\t-\t-\t-\tMISSING\t\n", w, d.Name, 100*d.Bound)
				regressions++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(va), iqrShare(vb)
			wins, pairs := pairWins(a.Runs[w], b.Runs[w], d)
			verdict := "ok"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			case pairs >= 10 && 10*wins >= 9*pairs && -worse > sa:
				verdict = "gain"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%d/%d\t%s\t\n",
				w, d.Name, ma, mb, 100*worse, 100*d.Bound, 100*sa, 100*sb, wins, pairs, verdict)
		}
		attA, failA, _ := a.operations(w)
		attB, failB, deadB := b.operations(w)
		verdict := "ok"
		// failB/attB > failA/attA, without dividing by a zero.
		if deadB > 0 || attB == 0 || failB*max(attA, 1) > failA*attB {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\t%d/%d\t\tany\t\t\t\t%s\t\n", w, failA, attA, failB, attB, verdict)
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d regressions, %d unresolved\n", regressions, unresolved)
	switch {
	case regressions > 0:
		return compareRegression
	case unresolved > 0:
		return compareUnresolved
	}
	return compareOK
}

// pairWins pairs the runs of two sets by seed, in the order made, and
// counts the pairs in which B's value is the better one. Ties count for
// neither side.
func pairWins(a, b []setRun, d metricDef) (wins, pairs int) {
	used := make([]bool, len(b))
	for _, ra := range a {
		for j, rb := range b {
			if used[j] || rb.Seed != ra.Seed {
				continue
			}
			used[j] = true
			x, okA := ra.Values[d.Name]
			y, okB := rb.Values[d.Name]
			if okA && okB {
				pairs++
				if (d.Better == "lower" && y < x) || (d.Better == "higher" && y > x) {
					wins++
				}
			}
			break
		}
	}
	return wins, pairs
}
