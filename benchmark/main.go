// Command benchmark is the repo's one benchmark: five named workloads
// driven against the layers' public functions, every result verified,
// every metric printed by name with its unit. BENCHMARK.json at the root
// of the repo names the workloads and metrics; README.md says why each
// was chosen and how to compare two commits.
//
//	benchmark -workload W -seed S [-seconds T] [-trace 1]   one run, in this process
//	benchmark -seed S [-set FILE]                            every workload, each in a child process
//	benchmark -compare A.json B.json                         two sets against the bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload in-process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: right-hand sides, fault plans, request mix")
	seconds := fs.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 records spans and emits the per-layer metrics instead of the end-to-end ones")
	set := fs.String("set", "", "with no -workload: append the end-to-end results to this set file for -compare, and skip the traced runs")
	compare := fs.Bool("compare", false, "compare two set files (arguments) against the bounds of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, outDir, err := locate()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two set files")
			return 2
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload != "":
		res, err := runWorkload(spec, params{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
			sz: fullSizes, outDir: outDir,
		}, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runAll(spec, *seed, *seconds, *set, stdout, stderr)
}

// runAll runs every workload in its own child process, so set-up time
// and peak memory are per workload: one end-to-end run, then one traced
// run. With a set file the end-to-end result is appended to it and the
// traced run, which a set has no use for, is left out; repetition comes
// from calling this once per seed (README: pairs, alternating order).
func runAll(spec *benchSpec, seed int64, seconds float64, setFile string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var set *resultSet
	if setFile != "" {
		if set, err = loadSet(setFile, seconds); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if set.Seconds != seconds {
			fmt.Fprintf(stderr, "benchmark: %s holds runs of %g s, this one is %g s\n", setFile, set.Seconds, seconds)
			return 2
		}
	}
	code := 0
	// child runs one workload and returns its result; the zero result
	// (nothing attempted) when the child crashed or printed none.
	child := func(w string, trace int) result {
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: cannot start %s: %v\n", w, err)
			code = 2
			return result{}
		}
		// Pass the child's report through; its last line is the result.
		var last string
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			if !strings.HasPrefix(last, "{") {
				fmt.Fprintln(stdout, last)
			}
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w, err)
			code = max(code, 1)
		}
		var res result
		if json.Unmarshal([]byte(last), &res) != nil {
			code = max(code, 1)
			return result{}
		}
		return res
	}
	for _, w := range spec.workloadNames() {
		res := child(w, 0)
		if set != nil {
			set.add(w, seed, res)
		} else {
			child(w, 1)
		}
	}
	if set != nil {
		if err := set.save(setFile); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}
