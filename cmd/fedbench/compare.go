package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"fedshare/internal/stats"
)

// side is one file's untraced runs of one workload: the values of one
// metric over its correct runs, in run order, and what failed.
type side struct {
	values    []float64
	badRuns   int   // runs that failed a check or did not finish
	failedOps int64 // operations failed, over every run
}

func collect(f *runFile, workload, metric string) side {
	var s side
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		s.failedOps += r.Failed
		if !r.Correct {
			// A failed run reports 0 for what it did not measure, which
			// would read as a win on a lower-is-better metric.
			s.badRuns++
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			s.values = append(s.values, m.Value)
		}
	}
	return s
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles, the pairwise wins of head over base (runs paired
// in order), and a verdict. It reports whether any metric regressed or
// failed.
func compareFiles(w io.Writer, basePath, headPath string, bench *benchmarkFile) (bool, error) {
	var base, head runFile
	for _, in := range []struct {
		path string
		f    *runFile
	}{{basePath, &base}, {headPath, &head}} {
		if err := readJSON(in.path, in.f); err != nil {
			return false, err
		}
		if in.f.Schema != runFileSchema {
			return false, fmt.Errorf("%s: result file schema %q, want %q", in.path, in.f.Schema, runFileSchema)
		}
	}
	regressed := false
	fmt.Fprintf(w, "%-10s %-12s %-30s %-30s %-7s %s\n", "workload", "metric", "base q1/median/q3", "head q1/median/q3", "wins", "verdict")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			a, b := collect(&base, wl.Name, m.Name), collect(&head, wl.Name, m.Name)
			if len(a.values)+a.badRuns == 0 || len(b.values)+b.badRuns == 0 {
				continue
			}
			var v string
			var wins, pairs int
			switch {
			case a.badRuns > 0 || b.badRuns > 0 || b.failedOps > a.failedOps:
				v = fmt.Sprintf("failed (failed runs %d/%d, failed operations %d/%d)", a.badRuns, b.badRuns, a.failedOps, b.failedOps)
			case len(a.values) == 0 || len(b.values) == 0:
				v = "failed (metric not reported)"
			default:
				v, wins, pairs = verdict(a.values, b.values, m.Bound, m.Better == "higher")
			}
			regressed = regressed || v == "regressed" || strings.HasPrefix(v, "failed")
			fmt.Fprintf(w, "%-10s %-12s %-30s %-30s %3d/%-3d %s\n", wl.Name, m.Name, quartiles(a.values), quartiles(b.values), wins, pairs, v)
		}
	}
	return regressed, nil
}

func quartiles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g/%.4g/%.4g", stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.75))
}

// verdict classifies head against base for one metric:
//   - unresolved: either side's quartile spread exceeds the bound, unless
//     every head run beats every base run;
//   - improved: head wins at least nine tenths of the pairs and its median
//     is better by more than base's quartile spread;
//   - regressed: head's median is worse than base's by more than the bound;
//   - within bound otherwise.
func verdict(a, b []float64, bound float64, higher bool) (v string, wins, pairs int) {
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	pairs = len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	aq1, amed, aq3 := stats.Quantile(a, 0.25), stats.Quantile(a, 0.5), stats.Quantile(a, 0.75)
	bq1, bmed, bq3 := stats.Quantile(b, 0.25), stats.Quantile(b, 0.5), stats.Quantile(b, 0.75)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := ratio(bmed-amed, math.Abs(amed))
	if higher {
		worse = -worse
	}
	switch {
	case (ratio(aq3-aq1, amed) > bound || ratio(bq3-bq1, bmed) > bound) && !allBetter:
		return "unresolved", wins, pairs
	case 10*wins >= 9*pairs && math.Abs(bmed-amed) > aq3-aq1 && better(bmed, amed):
		return "improved", wins, pairs
	case worse > bound:
		return "regressed", wins, pairs
	}
	return "within bound", wins, pairs
}
