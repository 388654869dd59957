// Command fedsim regenerates the paper's figures as data tables and ASCII
// charts, runs user-supplied scenario specs, and renders the schematic
// diagrams (Figs 1 and 3). The paper figures themselves are declarative
// scenario specs registered by the figures package; -list shows the
// registry.
//
// Usage:
//
//	fedsim -fig fig4                     # one figure
//	fedsim -all                          # every figure
//	fedsim -list                         # registered scenarios
//	fedsim -scenario examples/foo.json   # arbitrary scenario from a spec file
//	fedsim -fig fig4 -chart              # with an ASCII chart
//	fedsim -all -v                       # per-figure wall-clock + prefix-solver counts
//	fedsim -all -json                    # machine-readable run summary
//	fedsim -diagram                      # the federation-model and game diagrams
//	fedsim -weights                      # offline Shapley weight table (Sec. 3.2.3)
//	fedsim -scenario spec.json -approx -ci-target 0.01 -seed 7
//	                                     # force the sampling Shapley engine
//	fedsim -scenario spec.json -result-json
//	                                     # emit the result document (the
//	                                     # same bytes the served API returns)
//
// Execution goes through the scenario engine (internal/scenario/engine) —
// the same run table and executor a fedd -api daemon serves over HTTP —
// with fedsim as a one-shot synchronous client of it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fedshare/internal/allocation"
	"fedshare/internal/asciichart"
	_ "fedshare/internal/figures"
	"fedshare/internal/obs"
	"fedshare/internal/scenario"
	"fedshare/internal/scenario/engine"
)

// runAllIDs lists the registry in registration (paper) order for -all,
// skipping variant entries — alternate conventions of another figure that
// remain runnable by explicit -fig.
func runAllIDs() []string {
	var ids []string
	for _, e := range scenario.Entries() {
		if e.Variant {
			continue
		}
		ids = append(ids, e.ID)
	}
	return ids
}

func main() { os.Exit(run()) }

// run is fedsim's body. It returns the exit code instead of exiting, so
// every path, a failed one too, stops the CPU profile and writes the heap
// profile on its way out.
func run() int {
	figID := flag.String("fig", "", "scenario to regenerate ("+strings.Join(scenario.IDs(), ", ")+")")
	scenarioPath := flag.String("scenario", "", "run a declarative scenario spec from a JSON file")
	list := flag.Bool("list", false, "list the registered scenarios and exit")
	all := flag.Bool("all", false, "regenerate every figure (paper + extensions)")
	chart := flag.Bool("chart", false, "also render an ASCII chart")
	diagram := flag.Bool("diagram", false, "print the schematic diagrams (paper Figs 1 and 3)")
	weights := flag.Bool("weights", false, "print the offline Shapley weight table (Sec. 3.2.3 workflow)")
	width := flag.Int("width", 72, "chart width")
	height := flag.Int("height", 20, "chart height")
	workers := flag.Int("workers", 0, "parallel workers for sweeps, the coalition kernel and the sampler (0 = all cores, 1 = sequential)")
	verbose := flag.Bool("v", false, "print per-figure wall-clock and prefix-solver step/fallback counts")
	jsonOut := flag.Bool("json", false, "suppress tables and emit a JSON run summary (per-figure timings + obs metrics snapshot)")
	resultJSON := flag.Bool("result-json", false, "suppress tables and emit each result document as JSON (byte-identical to the served API's /result endpoint)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	approx := flag.Bool("approx", false, "force the sampling Shapley engine (spec method \"approx\")")
	samples := flag.Int("samples", 0, "permutation-sample budget for the approximate Shapley engine (0 = spec/default)")
	ciTarget := flag.Float64("ci-target", 0, "adaptive sampling target: 95% CI half-width as a fraction of V(N), e.g. 0.01 (0 = spec/default)")
	seed := flag.Uint64("seed", 0, "seed for the approximate Shapley engine's deterministic sample stream (0 = spec/default)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "usage: fedsim [flags]")
		fmt.Fprintln(out)
		fmt.Fprintln(out, "registered scenarios (-fig <id>):")
		writeScenarioList(out)
		fmt.Fprintln(out)
		fmt.Fprintln(out, "flags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	// Every worker pool (sweep points, Snapshot and BatchedValues behind
	// Model.Table and Values, the sampler's strata) is sweep.Each sized
	// from GOMAXPROCS; -workers bounds them all.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *jsonOut && *resultJSON {
		fmt.Fprintln(os.Stderr, "fedsim: -json and -result-json are mutually exclusive")
		return 2
	}
	// One experiment at a time, like the old in-process path; each run's
	// sweep still fans out on the worker pool.
	eng := engine.New(engine.Options{MaxConcurrent: 1})
	defer eng.Close()
	rc := runConfig{
		eng:   eng,
		chart: *chart, width: *width, height: *height,
		verbose: *verbose, jsonOut: *jsonOut, resultJSON: *resultJSON,
		approx: approxOverrides{
			force: *approx, samples: *samples, ciTarget: *ciTarget, seed: *seed,
		},
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		return code
	}
	switch {
	case *list:
		fmt.Println("registered scenarios (fedsim -fig <id>):")
		writeScenarioList(os.Stdout)
	case *diagram:
		printDiagrams()
	case *weights:
		// The weight table is a fixed text grid; refuse the output and
		// sampler flags it would otherwise ignore.
		bad := ""
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "json", "result-json", "chart", "v", "approx", "samples", "ci-target", "seed":
				if bad == "" {
					bad = f.Name
				}
			}
		})
		if bad != "" {
			return fail(2, fmt.Errorf("-weights does not take -%s", bad))
		}
		if err := rc.weightTable(); err != nil {
			return fail(1, err)
		}
	case *scenarioPath != "":
		if err := rc.scenarioFile(*scenarioPath); err != nil {
			return fail(1, err)
		}
		if err := rc.finish(); err != nil {
			return fail(1, err)
		}
	case *all:
		for _, id := range runAllIDs() {
			if err := rc.figure(id); err != nil {
				return fail(2, err)
			}
		}
		if err := rc.finish(); err != nil {
			return fail(1, err)
		}
	case *figID != "":
		if err := rc.figure(*figID); err != nil {
			return fail(2, err)
		}
		if err := rc.finish(); err != nil {
			return fail(1, err)
		}
	default:
		flag.Usage()
		return 2
	}
	return 0
}

// writeScenarioList renders the registry — one line per entry: id, kind
// (paper, variant or extension), and title.
func writeScenarioList(w io.Writer) {
	for _, e := range scenario.Entries() {
		kind := "paper"
		switch {
		case e.Variant:
			kind = "variant"
		case e.Extension:
			kind = "extension"
		}
		fmt.Fprintf(w, "  %-12s %-10s %s\n", e.ID, kind, e.Title)
	}
}

// runConfig carries output options and accumulates the -json summary. All
// execution goes through the engine, so fedsim exercises exactly the run
// path a serving daemon does.
type runConfig struct {
	eng           *engine.Engine
	chart         bool
	width, height int
	verbose       bool
	jsonOut       bool
	resultJSON    bool
	approx        approxOverrides
	figureSummary []figureSummary
}

// approxOverrides carries the CLI-level approximation-tier controls
// (-approx, -samples, -ci-target, -seed). They override the matching
// fields of whichever scenario runs.
type approxOverrides struct {
	force    bool
	samples  int
	ciTarget float64
	seed     uint64
}

// active reports whether any override was requested.
func (o approxOverrides) active() bool {
	return o.force || o.samples > 0 || o.ciTarget > 0 || o.seed != 0
}

// apply folds the overrides into a copy of the spec and re-validates, so
// flag errors surface with the same diagnostics as spec-file errors.
func (o approxOverrides) apply(s *scenario.Spec) (*scenario.Spec, error) {
	if !o.active() {
		return s, nil
	}
	c := *s
	if o.force {
		c.Method = scenario.MethodApprox
	}
	if o.samples > 0 {
		c.Samples = o.samples
	}
	if o.ciTarget > 0 {
		c.CITarget = o.ciTarget
	}
	if o.seed != 0 {
		c.Seed = o.seed
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// figureSummary is one figure's entry in the -json run summary.
type figureSummary struct {
	ID              string `json:"id"`
	Title           string `json:"title"`
	WallClockNS     int64  `json:"wall_clock_ns"`
	PrefixSteps     int64  `json:"prefix_steps"`
	PrefixFallbacks int64  `json:"prefix_fallbacks"`
	SeriesCount     int    `json:"series"`
}

// runSummary is the fedsim -json document: per-figure timings plus the
// end-of-run state of the process metrics registry — the same registry
// fedd serves over HTTP.
type runSummary struct {
	Figures []figureSummary `json:"figures"`
	Metrics obs.Snapshot    `json:"metrics"`
}

// figure regenerates one registered figure, honoring approximation-tier
// overrides.
func (rc *runConfig) figure(id string) error {
	return rc.render("fedsim.figure", "fig", id, func() (*scenario.Result, error) {
		e, err := scenario.ByID(id)
		if err != nil {
			return nil, err
		}
		spec, err := rc.approx.apply(e.Spec)
		if err != nil {
			return nil, err
		}
		return rc.eng.Run(context.Background(), spec)
	})
}

// scenarioFile loads a declarative spec from a JSON file, validates it,
// and runs it through the same executor and output paths as the figures.
func (rc *runConfig) scenarioFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	spec, err = rc.approx.apply(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return rc.render("fedsim.scenario", "scenario", spec.ID, func() (*scenario.Result, error) {
		return rc.eng.Run(context.Background(), spec)
	})
}

// render generates one result, timing the generation (not the rendering)
// and attributing prefix-solver traffic to it.
func (rc *runConfig) render(span, attr, id string, gen func() (*scenario.Result, error)) error {
	stepsBefore, fallbacksBefore := allocation.PrefixCounters()
	sp := obs.StartSpan(span).Attr(attr, id)
	start := time.Now()
	f, err := gen()
	if err != nil {
		sp.End()
		return err
	}
	elapsed := time.Since(start)
	sp.End()
	stepsAfter, fallbacksAfter := allocation.PrefixCounters()
	steps := stepsAfter - stepsBefore
	fallbacks := fallbacksAfter - fallbacksBefore
	if rc.resultJSON {
		out, err := f.JSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if rc.jsonOut {
		rc.figureSummary = append(rc.figureSummary, figureSummary{
			ID: f.ID, Title: f.Title, WallClockNS: elapsed.Nanoseconds(),
			PrefixSteps:     steps,
			PrefixFallbacks: fallbacks,
			SeriesCount:     len(f.Series),
		})
		return nil
	}
	printFigure(f, rc.chart, rc.width, rc.height)
	if rc.verbose {
		fmt.Printf("-- %s: %v wall-clock", f.ID, elapsed.Round(time.Microsecond))
		if steps > 0 {
			fmt.Printf(", prefix solver %d steps / %d fallbacks (%.1f%% fallback rate)",
				steps, fallbacks, 100*float64(fallbacks)/float64(steps))
		}
		fmt.Printf("\n\n")
	}
	return nil
}

// finish emits the JSON run summary when -json is set.
func (rc *runConfig) finish() error {
	if !rc.jsonOut {
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(runSummary{Figures: rc.figureSummary, Metrics: obs.Default.Snapshot()})
}

func printFigure(f *scenario.Result, chart bool, w, h int) {
	fmt.Printf("== %s: %s ==\n", f.ID, f.Title)
	if f.Notes != "" {
		fmt.Printf("   %s\n", f.Notes)
	}
	fmt.Println(f.Table())
	if chart {
		fmt.Println(asciichart.Render(f.Series, asciichart.Options{Width: w, Height: h}))
	}
}

// weightTable demonstrates the paper's Sec. 3.2.3 practical workflow: φ̂
// computed off-line over a grid of expected demand, ready to be used as
// generic policy weights. Each volume K is one shares spec swept over the
// threshold and run on the engine like any figure. The specs stay out of
// the registry, so neither -list nor -all sees them.
func (rc *runConfig) weightTable() error {
	facilities := []scenario.FacilitySpec{
		{Name: "PLC", Locations: 100, Resources: 80},
		{Name: "PLE", Locations: 400, Resources: 60},
		{Name: "PLJ", Locations: 800, Resources: 20},
	}
	thresholds := []float64{0, 250, 500, 750, 1000, 1250}
	volumes := []int{1, 20, 100}
	results := make([]*scenario.Result, len(volumes))
	for i, k := range volumes {
		res, err := rc.eng.Run(context.Background(), &scenario.Spec{
			ID:         fmt.Sprintf("weights-k%d", k),
			Facilities: facilities,
			Demand:     []scenario.DemandSpec{{Name: "scenario", Count: k}},
			Policies:   []string{"shapley"},
			Axis:       scenario.AxisSpec{Variable: scenario.VarThreshold, Values: thresholds},
		})
		if err != nil {
			return err
		}
		results[i] = res
	}
	fmt.Println("offline Shapley weight table (PLC/PLE/PLJ: L = 100/400/800, R = 80/60/20):")
	fmt.Printf("%10s %8s", "l", "K")
	for _, f := range facilities {
		fmt.Printf(" %9s", f.Name)
	}
	fmt.Println()
	for li, l := range thresholds {
		for i, k := range volumes {
			fmt.Printf("%10.0f %8d", l, k)
			for _, phi := range results[i].Series {
				fmt.Printf(" %8.2f%%", phi.Points[li].Y*100)
			}
			fmt.Println()
		}
	}
	fmt.Println()
	fmt.Println("Operators look up these rows by expected demand instead of")
	fmt.Println("running the coalition game online (Sec. 3.2.3).")
	return nil
}

func printDiagrams() {
	fmt.Print(`== Figure 1: federation model ==

  facility 1 (L1 locations, R1 each)   facility 2 (L2, R2)   facility 3 (L3, R3)
        \                                  |                      /
         \                                 |                     /
          +----------------- federated location pool ---------------+
          | location l: capacity = sum of R_i over facilities at l  |
          | diversity  = number of distinct locations in the pool   |
          +----------------------------------------------------------+
                      |                             |
            external customers E            affiliated users U_i
            (commercial scenario)           (P2P scenario)

== Figure 3: the federation game ==

  individual contributions (L_i, R_i)        policy input
        |                                         |
        v                                         v
  [resource allocation / profit maximization]  --->  federation value V(N)
        |                                         |
        v                                         v
  [profit & value sharing: Shapley | nucleolus | proportional | priorities]
        |
        v
  individual shares s_i  --->  local provision decisions (value vs cost)
        |                                         |
        +------------------- feedback loop -------+
`)
}
