package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenance says where a result came from, so two results are compared
// only when they can be: -compare refuses sets whose nproc differ.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	L2MB       float64 `json:"l2_mb"` // summed over the L2 caches of all CPUs
	L3MB       float64 `json:"l3_mb"`
	GoVersion  string  `json:"go_version"`
	Git        string  `json:"git_describe"`
	Seed       int64   `json:"seed"`
	// Degraded marks a run on one processor: nothing that needs two
	// cores (overlap, stealing, two serve clients) can show there.
	Degraded bool `json:"degraded"`
	// Triad is the host bandwidth measured in this run (traced runs).
	TriadGBs     float64 `json:"triad_gbs,omitempty"`
	TriadArrayMB float64 `json:"triad_array_mb,omitempty"` // each of the three arrays
}

// poolWorkers is the task-pool size of every workload.
func poolWorkers() int { return min(runtime.NumCPU(), 4) }

func collectProvenance(seed int64) provenance {
	l2, l3 := cacheMB()
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    poolWorkers(),
		L2MB:       l2,
		L3MB:       l3,
		GoVersion:  runtime.Version(),
		Git:        "unknown",
		Seed:       seed,
		Degraded:   runtime.GOMAXPROCS(0) == 1,
	}
	// Only inside a work tree: the driver's checkout is not one, and git
	// must not wander up into whatever repository holds it.
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, ".git")); err == nil {
			if out, err := exec.Command("git", "-C", dir, "describe", "--always", "--dirty").Output(); err == nil {
				p.Git = strings.TrimSpace(string(out))
			}
			break
		}
	}
	return p
}

// cacheMB sums the distinct L2 and L3 caches /sys reports, in MB.
func cacheMB() (l2, l3 float64) {
	seen := map[string]bool{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*")
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		level := read("level")
		key := level + "/" + read("type") + "/" + read("shared_cpu_list")
		if seen[key] || (level != "2" && level != "3") {
			continue
		}
		seen[key] = true
		size := read("size")
		mult := 1.0 / (1 << 20)
		switch {
		case strings.HasSuffix(size, "K"):
			mult = 1.0 / 1024
		case strings.HasSuffix(size, "M"):
			mult = 1
		}
		v, _ := strconv.ParseFloat(strings.TrimRight(size, "KM"), 64)
		if level == "2" {
			l2 += v * mult
		} else {
			l3 += v * mult
		}
	}
	return l2, l3
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// triad measures a[i] = b[i] + s*c[i] over arrays of at least four times
// the summed L2 (32 MiB when /sys gives no sizes) at the worker count —
// the host's sustainable bandwidth every kernel number is set against.
// Bytes are computed: three 8-byte streams per element.
func triad(workers int, l2MB float64) (gbPerS, arrayMB float64) {
	n := int(4*l2MB*(1<<20)) / 8
	if n < 4<<20 {
		n = 4 << 20
	}
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	d := kernelPass(splitRows(n, 512, workers), 1, func(lo, hi int) {
		as, bs, cs := a[lo:hi], b[lo:hi], c[lo:hi]
		for i := range as {
			as[i] = bs[i] + 3*cs[i]
		}
	})
	return gbs(24*float64(n), d), float64(n) * 8 / (1 << 20)
}
