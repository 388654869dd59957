package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fedshare/internal/stats"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// benchmarkFile is the part of BENCHMARK.json fedbench reads: the output
// schema. Untraced runs report every end-to-end metric: a pass is one run
// over a compute workload's jobs, or 64 lifecycles on the plane; an
// operation is one job, or one acknowledged call. Times are scaled to the
// quiet reference host (calibrate.go). Traced
// runs report every per-layer metric, named after the repository module it
// measures; a layer the workload does not exercise reads 0. README.md maps
// each layer metric to the end-to-end metric and workload it should move.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json at the repository root.
func loadBenchmark(root string) (*benchmarkFile, error) {
	var b benchmarkFile
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &b); err != nil {
		return nil, err
	}
	if len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json declares no end-to-end or no per-layer metrics")
	}
	return &b, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// report is what one workload run measured.
type report struct {
	attempted, failed int64
	values            map[string]float64
	samples           map[string]int    // sample counts behind medians and percentiles
	raw               map[string]string // timed metrics: the raw median and host slowdown
	gates             []string          // failed correctness checks
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, raw: map[string]string{}}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// setTimed records a timed metric as the median of its samples scaled to
// the quiet reference host, keeping the raw median beside it. Given
// several groups of samples, it is the median of the groups' medians.
func (r *report) setTimed(name string, groups ...timings) {
	var norm, raw, slow []float64
	n := 0
	for _, g := range groups {
		norm = append(norm, median(g.norm))
		raw = append(raw, median(g.raw))
		slow = append(slow, g.slow...)
		n += len(g.norm)
	}
	r.set(name, median(norm), n)
	r.raw[name] = fmt.Sprintf("raw %.6g, host slowdown %.3f", median(raw), median(slow))
}

// check records a failed correctness gate.
func (r *report) check(err error) {
	if err != nil {
		r.gates = append(r.gates, err.Error())
	}
}

// checkf records a gate failure when ok is false.
func (r *report) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON document a single workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// residentMB reads the process's resident set (VmRSS) in MiB. Runs report
// its median over pass ends rather than the peak (VmHWM): the peak ratchets
// up on the rare pass whose garbage collection falls behind, and moved by
// half between runs of one small workload.
func residentMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmRSS:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmRSS not found in /proc/self/status")
}
