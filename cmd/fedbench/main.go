// Command fedbench is the repository's benchmark: one harness for the
// figure pipeline, the Shapley sampler and the federation plane. It drives
// each layer only through its public API, wired as fedsim and fedd wire
// it, and reports end-to-end metrics from untraced runs and per-layer
// metrics from separate traced runs. Every run also checks the outputs;
// a failed check makes the run fail.
//
// Usage:
//
//	fedbench -workload paper -seed 1 -seconds 10 -trace 0  # one run; last stdout line is JSON
//	fedbench -workload plane -trace 1 -spans plane.jsonl   # traced: per-layer metrics + spans
//	fedbench -seed 1 -repeat 3 -out run.json               # every workload, each run in a child process
//	fedbench -compare base.json head.json                  # medians, quartiles, wins, verdicts
//
// Run it from the repository root (it reads the figure goldens and
// BENCHMARK.json there); run.sh builds it and does so.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	// Registers the paper figures the paper workload runs.
	_ "fedshare/internal/figures"
	"fedshare/internal/obs"
)

// setupRepeats is how many times a run sets up; it reports the median.
// One plane recovery can take a third longer than another in the same
// run; a median of 15 keeps such outliers out of the reported value.
const setupRepeats = 15

// runEnv is one workload run's configuration.
type runEnv struct {
	seed      uint64
	seconds   time.Duration
	minPasses int
	trace     *tracer // nil for an untraced run
	cal       *calibrator
	root      string  // repository root
	workDir   string  // scratch space for data directories
	size      float64 // instance size; 1 is the benchmark's
}

// workload is one named set of inputs. BENCHMARK.json records why each
// exists.
type workload struct {
	name string
	run  func(env *runEnv) *report
}

var workloads = []workload{
	{"paper", func(env *runEnv) *report { return runCompute(env, paperJobs, true) }},
	{"federation", func(env *runEnv) *report { return runCompute(env, federationJobs, false) }},
	{"walk", func(env *runEnv) *report { return runCompute(env, walkJobs, false) }},
	{"scarce", func(env *runEnv) *report { return runCompute(env, scarceJobs, false) }},
	{"plane", func(env *runEnv) *report { return runPlane(env, false) }},
	{"churn", func(env *runEnv) *report { return runPlane(env, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "run one workload in this process (paper, federation, walk, scarce, plane, churn)")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	traceFlag := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "traced runs: write spans as JSONL here (default .bench_build/spans/<workload>-<seed>.jsonl)")
	root := flag.String("root", ".", "repository root")
	workDir := flag.String("workdir", ".bench_build/work", "scratch directory for data directories")
	out := flag.String("out", "", "without -workload: add every run's result to this JSON file, created if missing")
	repeat := flag.Int("repeat", 1, "without -workload: runs per workload, seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments")
	flag.Parse()

	// The load model assumes a two-core host.
	runtime.GOMAXPROCS(2)
	bench, err := loadBenchmark(*root)
	if err != nil {
		fail(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two result files"))
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), bench)
		if err == nil && regressed {
			os.Exit(1)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		if *traceFlag != 0 && *traceFlag != 1 {
			fail(fmt.Errorf("-trace must be 0 or 1"))
		}
		env := &runEnv{
			seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), minPasses: 7,
			root: *root, workDir: *workDir, size: 1,
		}
		if *traceFlag == 1 {
			env.trace = newTracer()
			env.minPasses = 2
		}
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		}
		var res result
		_, res, err = runWorkload(os.Stdout, w, env, bench, path)
		if err == nil && !res.Correct {
			os.Exit(1)
		}
	default:
		err = runAll(*seed, *seconds, *traceFlag, *repeat, *root, *workDir, *out)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fedbench:", err)
	os.Exit(2)
}

// runWorkload runs one workload in this process, prints every metric
// BENCHMARK.json declares for the run with its unit and sample count, and
// prints the result as the last line. It also returns what the workload
// measured.
func runWorkload(stdout io.Writer, w workload, env *runEnv, bench *benchmarkFile, spansPath string) (*report, result, error) {
	if err := os.MkdirAll(env.workDir, 0o755); err != nil {
		return nil, result{}, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, result{}, err
	}
	defer cal.close()
	env.cal = cal
	rep := w.run(env)
	defs := bench.EndToEnd
	if env.trace != nil {
		defs = bench.PerLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "fedbench %s seed=%d trace=%t: attempted=%d failed=%d\n",
		w.name, env.seed, env.trace != nil, rep.attempted, rep.failed)
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && env.trace == nil && len(rep.gates) == 0 {
			rep.check(fmt.Errorf("metric %s not measured", d.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.check(fmt.Errorf("metric %s is %v", d.Name, v))
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("  %-34s %14.6g %-6s n=%-6d %s", d.Name, v, d.Unit, rep.samples[d.Name], rep.raw[d.Name])
		fmt.Fprintln(stdout, strings.TrimRight(line, " "))
	}
	if env.trace != nil {
		env.trace.mu.Lock()
		spans := env.trace.spans
		env.trace.mu.Unlock()
		printSelfTimes(stdout, spans)
		rep.check(env.trace.writeJSONL(spansPath))
		fmt.Fprintf(stdout, "  spans: %d written to %s\n", len(spans), spansPath)
	}
	for _, g := range rep.gates {
		fmt.Fprintln(os.Stderr, "fedbench: check failed:", g)
	}
	res.Correct = len(rep.gates) == 0 && rep.failed == 0 && rep.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return rep, res, err
	}
	fmt.Fprintln(stdout, string(line))
	return rep, res, nil
}

// runFile is the -out document: host facts and every run's result.
type runFile struct {
	Schema string      `json:"schema"`
	Commit string      `json:"commit,omitempty"`
	Go     string      `json:"go"`
	Host   hostInfo    `json:"host"`
	Runs   []runRecord `json:"runs"`
}

type hostInfo struct {
	OS   string `json:"os"`
	Arch string `json:"arch"`
	CPUs int    `json:"cpus"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

const runFileSchema = "fedbench/v1"

// runAll runs every workload repeat times, each run in a fresh child
// process, and adds the results to out. Adding rather than replacing lets
// runs of two commits alternate, each side's runs going to its own file.
// It fails if any run fails.
func runAll(seed uint64, seconds float64, trace, repeat int, root, workDir, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := runFile{
		Schema: runFileSchema, Commit: obs.Version().Revision, Go: runtime.Version(),
		Host: hostInfo{OS: runtime.GOOS, Arch: runtime.GOARCH, CPUs: runtime.NumCPU()},
	}
	if out != "" {
		var prev runFile
		switch err := readJSON(out, &prev); {
		case err == nil:
			if prev.Schema != doc.Schema || prev.Commit != doc.Commit {
				return fmt.Errorf("%s holds runs of schema %q at commit %q, not %q at %q",
					out, prev.Schema, prev.Commit, doc.Schema, doc.Commit)
			}
			doc.Runs = prev.Runs
		case !errors.Is(err, fs.ErrNotExist):
			return err
		}
	}
	failed := 0
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			s := seed + uint64(r)
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-root", root, "-workdir", workDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				return err
			}
			if err := cmd.Start(); err != nil {
				return err
			}
			var last string
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				last = sc.Text()
				fmt.Println(last)
			}
			waitErr := cmd.Wait()
			rec := runRecord{Workload: w.name, Seed: s, Trace: trace == 1}
			if err := json.Unmarshal([]byte(last), &rec.result); err != nil || waitErr != nil || !rec.Correct {
				failed++
				fmt.Fprintf(os.Stderr, "fedbench: %s seed %d failed: %v\n", w.name, s, waitErr)
			}
			doc.Runs = append(doc.Runs, rec)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}
