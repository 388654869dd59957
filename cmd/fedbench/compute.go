package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
	"fedshare/internal/core"
	"fedshare/internal/scenario"
	"fedshare/internal/scenario/engine"
)

// The compute workloads are a closed loop of one caller submitting jobs
// serially to an in-process engine with one execution slot — the fedsim
// path. The allocation memo is reset before every pass, so each pass is as
// cold as a fresh fedsim process.

// computeJob is one experiment a compute workload submits.
type computeJob struct {
	spec   *scenario.Spec // nil for a code-backed registry entry
	entry  scenario.Entry
	golden string // expected rendered table; empty when there is none
}

func (j computeJob) id() string {
	if j.spec != nil {
		return j.spec.ID
	}
	return j.entry.ID
}

// approx reports whether the job computes sampled Shapley shares, whose
// efficiency, convergence and identity with the policy result are gated.
func (j computeJob) approx() bool {
	if j.spec == nil {
		return false
	}
	for _, p := range j.spec.Policies {
		if p == "shapley-approx" {
			return true
		}
	}
	return false
}

// jobGen builds a workload's jobs; it is the timed spec-generation part of
// set-up, ending with every spec parsed and validated.
type jobGen func(env *runEnv) ([]computeJob, error)

// parsed round-trips generated specs through their JSON form and
// scenario.ParseSpec, as a spec file handed to fedsim would be.
func parsed(specs ...*scenario.Spec) ([]computeJob, error) {
	jobs := make([]computeJob, len(specs))
	for i, s := range specs {
		data, err := s.JSON()
		if err != nil {
			return nil, err
		}
		p, err := scenario.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		jobs[i] = computeJob{spec: p}
	}
	return jobs, nil
}

// paperJobs are the registered figures in registry order.
func paperJobs(*runEnv) ([]computeJob, error) {
	var jobs []computeJob
	for _, e := range scenario.Entries() {
		if e.Spec == nil {
			jobs = append(jobs, computeJob{entry: e})
			continue
		}
		j, err := parsed(e.Spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		jobs = append(jobs, j[0])
	}
	return jobs, nil
}

func federationJobs(env *runEnv) ([]computeJob, error) {
	return parsed(federationSpecs(env.seed, env.size)...)
}

func walkJobs(env *runEnv) ([]computeJob, error) { return parsed(walkSpec(env.seed, env.size)) }

func scarceJobs(env *runEnv) ([]computeJob, error) { return parsed(scarceSpec(env.seed, env.size)) }

// paperGoldens are the figures pinned byte-for-byte by
// internal/figures/testdata (fig-approx has no golden).
var paperGoldens = []string{"fig2", "fig4", "fig4-strict", "fig5", "fig6", "fig7", "fig8", "fig9", "fig-market"}

// attachGoldens loads the figure goldens for the jobs that have one.
func attachGoldens(jobs []computeJob, root string) error {
	want := map[string]bool{}
	for _, id := range paperGoldens {
		want[id] = true
	}
	for i := range jobs {
		if !want[jobs[i].id()] {
			continue
		}
		b, err := os.ReadFile(filepath.Join(root, "internal", "figures", "testdata", jobs[i].id()+".golden"))
		if err != nil {
			return err
		}
		jobs[i].golden = string(b)
		delete(want, jobs[i].id())
	}
	if len(want) > 0 {
		return fmt.Errorf("figures missing from the registry: %v", want)
	}
	return nil
}

// computePass is what one pass measured.
type computePass struct {
	wall             time.Duration
	slowdown         float64 // the host's, measured just before the pass
	rssMB            float64 // resident set at the end of the pass
	jobMS            []float64
	queue, run       time.Duration
	pointMS          []float64
	memo             allocation.MemoStats
	steps, fallbacks int64
	gcPause          time.Duration
	allocBytes       uint64
	decomp           decomposition
}

// decomposition is what the traced Values calls of one pass measured.
type decomposition struct {
	values, value, prefix time.Duration
	valueCalls, steps     int64
	permutations          int
	ciRelMax              float64
}

func runCompute(env *runEnv, gen jobGen, goldens bool) *report {
	rep := newReport()
	ctx := context.Background()

	var eng *engine.Engine
	var jobs []computeJob
	var setups timings
	for i := 0; i < setupRepeats; i++ {
		if eng != nil {
			eng.Close()
		}
		runtime.GC()
		slow, err := env.cal.slowdown()
		if err != nil {
			rep.check(err)
			return rep
		}
		t0 := time.Now()
		eng = engine.New(engine.Options{MaxConcurrent: 1})
		jobs, err = gen(env)
		setups.add(time.Since(t0).Seconds(), slow)
		if err != nil {
			rep.check(fmt.Errorf("set-up: %w", err))
			eng.Close()
			return rep
		}
	}
	defer eng.Close()
	rep.setTimed("setup_s", setups)
	if goldens {
		if err := attachGoldens(jobs, env.root); err != nil {
			rep.check(fmt.Errorf("goldens: %w", err))
			return rep
		}
	}

	var untraced, traced []computePass
	first := map[string]string{} // job id -> first pass's table
	results := map[string]*scenario.Result{}
	start := time.Now()
	for pass := 0; pass < env.minPasses || time.Since(start) < env.seconds; pass++ {
		tracedPass := env.trace != nil && pass%2 == 1
		p := runComputePass(ctx, env, eng, jobs, tracedPass, rep, first, results)
		if len(rep.gates) > 0 {
			return rep
		}
		if tracedPass {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}

	if env.trace == nil {
		// Untraced runs gate the sampled jobs against the policy result
		// once, after measuring.
		for _, j := range jobs {
			if j.approx() {
				_, err := verifyApprox(j.spec, results[j.id()], func(m *core.Model) (*coalition.ValueResult, error) {
					return approxPolicy(j.spec).Result(m)
				})
				rep.check(err)
			}
		}
		var walls timings
		byJob := make([]timings, len(jobs))
		var rss []float64
		for _, p := range untraced {
			walls.add(p.wall.Seconds(), p.slowdown)
			for i, ms := range p.jobMS {
				byJob[i].add(ms, p.slowdown)
			}
			rss = append(rss, p.rssMB)
		}
		rep.setTimed("pass_s", walls)
		// A job's time is its median over passes. Pooling every pass's
		// jobs instead would put the median in the gap between two jobs
		// of very different cost, where it jumps on noise.
		rep.setTimed("op_ms_p50", byJob...)
		rep.set("rss_mb", median(rss), len(rss))
		return rep
	}
	reportComputeLayers(rep, untraced, traced)
	return rep
}

// runComputePass runs every job once through the engine. A traced pass
// also records spans and sweep-point intervals and then decomposes each
// sampled job's share computation through tracedGame.
func runComputePass(ctx context.Context, env *runEnv, eng *engine.Engine, jobs []computeJob, traced bool,
	rep *report, first map[string]string, results map[string]*scenario.Result) computePass {
	var p computePass
	allocation.DefaultMemo.Reset()
	// Start every pass from a collected heap, as a fresh process does, so
	// that no pass collects the garbage of the one before it.
	runtime.GC()
	var err error
	if p.slowdown, err = env.cal.slowdown(); err != nil {
		rep.check(err)
		return p
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	steps0, fallbacks0 := allocation.PrefixCounters()
	var root spanRef
	if traced {
		root = env.trace.root()
	}
	t0 := time.Now()
	for _, j := range jobs {
		rep.attempted++
		j0 := time.Now()
		r, err := submitJob(ctx, eng, j, traced, &p.pointMS)
		j1 := time.Now()
		if err != nil {
			rep.failed++
			rep.check(fmt.Errorf("job %s: %w", j.id(), err))
			return p
		}
		p.jobMS = append(p.jobMS, float64(j1.Sub(j0))/1e6)
		p.queue += r.Started.Sub(r.Submitted)
		p.run += r.Finished.Sub(r.Started)
		if traced {
			js := env.trace.child(root)
			env.trace.add(js, "engine.queue", r.Submitted, r.Started, 0)
			env.trace.add(js, "scenario.run", r.Started, r.Finished, 0)
			env.trace.record(js, root.id, "job", j0, j1, 0)
		}
		results[j.id()] = r.Result
	}
	t1 := time.Now()
	p.wall = t1.Sub(t0)
	p.rssMB, err = residentMB()
	rep.check(err)
	p.memo = allocation.DefaultMemo.Stats()
	steps1, fallbacks1 := allocation.PrefixCounters()
	p.steps, p.fallbacks = steps1-steps0, fallbacks1-fallbacks0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, j := range jobs {
		rep.check(checkJob(j, results[j.id()], first))
	}
	if !traced {
		return p
	}
	env.trace.record(root, 0, "pass", t0, t1, 0)

	// Decompose each sampled job's shares through the timing wrapper, from
	// a cold memo like the pass itself. One worker keeps the valuer time a
	// part of the Values wall time; the estimate is the same at any worker
	// count.
	for _, j := range jobs {
		if !j.approx() {
			continue
		}
		allocation.DefaultMemo.Reset()
		d, err := verifyApprox(j.spec, results[j.id()], func(m *core.Model) (*coalition.ValueResult, error) {
			g := &tracedGame{m: m}
			opt, err := approxOptions(j.spec, m)
			if err != nil {
				return nil, err
			}
			ref := env.trace.root()
			v0 := time.Now()
			vr, err := coalition.Values(g, opt)
			v1 := time.Now()
			value, prefix := time.Duration(g.valueNS.Load()), time.Duration(g.prefixNS.Load())
			// The aggregated children are laid end to end from the call's
			// start; with one worker their sum fits inside it.
			if n := g.valueN.Load(); n > 0 {
				env.trace.add(ref, "core.value", v0, v0.Add(value), n)
			}
			if n := g.prefixN.Load(); n > 0 {
				env.trace.add(ref, "core.prefix", v0.Add(value), v0.Add(value+prefix), n)
			}
			env.trace.record(ref, 0, "coalition.values", v0, v1, 0)
			p.decomp.values += v1.Sub(v0)
			p.decomp.value += value
			p.decomp.prefix += prefix
			p.decomp.valueCalls += g.valueN.Load()
			p.decomp.steps += g.prefixN.Load()
			if vr != nil {
				p.decomp.permutations += vr.Samples
			}
			return vr, err
		})
		rep.check(err)
		p.decomp.ciRelMax = math.Max(p.decomp.ciRelMax, d)
	}
	return p
}

// submitJob runs one job to completion and returns the engine's run
// record. A traced spec job runs through SubmitJob with the same
// scenario.RunContext the engine's Submit wraps, observing its progress
// callbacks to time sweep points.
func submitJob(ctx context.Context, eng *engine.Engine, j computeJob, traced bool, pointMS *[]float64) (engine.Run, error) {
	var id string
	var err error
	switch {
	case j.spec == nil:
		id, err = eng.SubmitEntry(j.entry)
	case traced:
		spec := j.spec
		var last time.Time
		var intervals []float64
		id, err = eng.SubmitJob(spec.ID, func(ctx context.Context, progress scenario.ProgressFunc) (*scenario.Result, error) {
			// Sweep workers may report progress concurrently.
			var mu sync.Mutex
			res, err := scenario.RunContext(ctx, spec, func(done, total int) {
				mu.Lock()
				now := time.Now()
				if done > 0 {
					intervals = append(intervals, float64(now.Sub(last))/1e6)
				}
				last = now
				mu.Unlock()
				progress(done, total)
			})
			*pointMS = append(*pointMS, intervals...)
			return res, err
		})
	default:
		id, err = eng.Submit(j.spec)
	}
	if err != nil {
		return engine.Run{}, err
	}
	r, err := eng.Wait(ctx, id)
	if err != nil {
		return r, err
	}
	if r.State != engine.StateDone {
		return r, fmt.Errorf("run %s ended %s: %s", r.ID, r.State, r.Error)
	}
	return r, nil
}

// checkJob gates one job's output: goldens byte-for-byte, the same table
// on every pass, and — for sampled shares — efficiency: the per-template
// mean shares, weighted by template size, sum to 1, i.e. Σφ̂ = V(N).
func checkJob(j computeJob, res *scenario.Result, first map[string]string) error {
	table := res.Table()
	if j.golden != "" && table != j.golden {
		return fmt.Errorf("%s: table differs from its golden (%d bytes, want %d)", j.id(), len(table), len(j.golden))
	}
	if prev, ok := first[j.id()]; ok && prev != table {
		return fmt.Errorf("%s: table differs from the first pass", j.id())
	}
	first[j.id()] = table
	if !j.approx() {
		return nil
	}
	series, err := approxSeries(res, len(j.spec.Facilities))
	if err != nil {
		return fmt.Errorf("%s: %w", j.id(), err)
	}
	for k := range series[0] {
		sum := 0.0
		for g, f := range j.spec.Facilities {
			sum += series[g][k] * float64(replicas(f))
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("%s: point %d: sampled shares sum to %.12g, want 1 (Σφ̂ = V(N))", j.id(), k, sum)
		}
	}
	return nil
}

func replicas(f scenario.FacilitySpec) int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// approxSeries returns the shapley-approx series ("aphi1".."aphiG") as
// per-template y values.
func approxSeries(res *scenario.Result, groups int) ([][]float64, error) {
	out := make([][]float64, groups)
	for _, s := range res.Series {
		g, err := strconv.Atoi(strings.TrimPrefix(s.Name, "aphi"))
		if !strings.HasPrefix(s.Name, "aphi") || err != nil || g < 1 || g > groups {
			continue
		}
		for _, pt := range s.Points {
			out[g-1] = append(out[g-1], pt.Y)
		}
	}
	for g := range out {
		if len(out[g]) == 0 || len(out[g]) != len(out[0]) {
			return nil, fmt.Errorf("result lacks sampled-share series aphi%d", g+1)
		}
	}
	return out, nil
}

// approxPolicy is the policy scenario.RunContext evaluates for the spec's
// "shapley-approx" entries.
func approxPolicy(s *scenario.Spec) core.ApproxShapleyPolicy {
	p := core.ApproxShapleyPolicy{Samples: s.Samples, CITarget: s.CITarget, Seed: s.Seed}
	if s.Method == scenario.MethodApprox {
		p.Method = coalition.MethodApprox
	}
	return p
}

// approxOptions are the coalition.Values options approxPolicy(s).Result(m)
// passes, with one worker.
func approxOptions(s *scenario.Spec, m *core.Model) (coalition.Options, error) {
	p := approxPolicy(s)
	opt := coalition.Options{Method: p.Method, Workers: 1, Samples: p.Samples, Seed: p.Seed}
	if opt.Method == "" {
		opt.Method = coalition.MethodAuto
	}
	if p.CITarget > 0 {
		vn := m.GrandValue()
		if vn <= 0 {
			return opt, fmt.Errorf("relative CI target needs V(N) > 0, have %g", vn)
		}
		opt.CITarget = p.CITarget * vn
	}
	return opt, nil
}

// verifyApprox recomputes each sweep point's sampled Shapley values with
// values and gates them: Σφ̂ = V(N), convergence when a CI target is set,
// and bit-identity of the normalized per-template means with the engine's
// output. It returns the largest CI half-width relative to V(N).
func verifyApprox(s *scenario.Spec, res *scenario.Result, values func(*core.Model) (*coalition.ValueResult, error)) (float64, error) {
	if s.Axis.Variable != scenario.VarThreshold || len(s.Axis.Values) == 0 {
		return 0, fmt.Errorf("%s: sampled-share gate needs an explicit threshold axis", s.ID)
	}
	if res == nil {
		return 0, fmt.Errorf("%s: no result to verify", s.ID)
	}
	series, err := approxSeries(res, len(s.Facilities))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", s.ID, err)
	}
	ciMax := 0.0
	for k, x := range s.Axis.Values {
		m, err := atThreshold(s, x).Model()
		if err != nil {
			return 0, err
		}
		vr, err := values(m)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.ID, err)
		}
		vn := m.GrandValue()
		sum := 0.0
		for _, phi := range vr.Phi {
			sum += phi
		}
		if math.Abs(sum-vn) > 1e-9*math.Max(1, math.Abs(vn)) {
			return 0, fmt.Errorf("%s at l=%g: Σφ̂ = %.12g, V(N) = %.12g", s.ID, x, sum, vn)
		}
		if s.CITarget > 0 && !vr.Converged {
			return 0, fmt.Errorf("%s at l=%g: sampler did not reach the %g CI target", s.ID, x, s.CITarget)
		}
		for _, ci := range vr.CIHalf {
			ciMax = math.Max(ciMax, ci/vn)
		}
		idx := 0
		for g, f := range s.Facilities {
			total := 0.0
			for r := 0; r < replicas(f); r++ {
				total += vr.Phi[idx] / vn
				idx++
			}
			if mean := total / float64(replicas(f)); mean != series[g][k] {
				return 0, fmt.Errorf("%s at l=%g: %s share %v differs from the engine's %v",
					s.ID, x, f.Name, mean, series[g][k])
			}
		}
	}
	return ciMax, nil
}

// atThreshold is the spec with its threshold axis applied at x, as the
// executor applies it: targeted demand classes (all when untargeted) take
// x as their minimum location count.
func atThreshold(s *scenario.Spec, x float64) *scenario.Spec {
	c := *s
	c.Demand = append([]scenario.DemandSpec(nil), s.Demand...)
	for i := range c.Demand {
		if s.Axis.Target == "" || c.Demand[i].Name == s.Axis.Target {
			c.Demand[i].MinLocations = x
		}
	}
	return &c
}

// reportComputeLayers turns the traced run's passes into layer metrics:
// medians over traced passes, and the tracing overhead against the
// untraced passes interleaved with them.
func reportComputeLayers(rep *report, untraced, traced []computePass) {
	med := func(name string, f func(p computePass) float64) {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, f(p))
		}
		rep.set(name, median(xs), len(xs))
	}
	med("engine.queue_ms", func(p computePass) float64 { return float64(p.queue) / 1e6 })
	med("scenario.run_s", func(p computePass) float64 { return p.run.Seconds() })
	var points []float64
	for _, p := range traced {
		points = append(points, p.pointMS...)
	}
	p50, _ := percentile(points, 50)
	rep.set("sweep.point_ms_p50", p50, len(points))
	med("coalition.values_s", func(p computePass) float64 { return p.decomp.values.Seconds() })
	med("coalition.self_s", func(p computePass) float64 {
		return (p.decomp.values - p.decomp.value - p.decomp.prefix).Seconds()
	})
	med("coalition.permutations", func(p computePass) float64 { return float64(p.decomp.permutations) })
	med("coalition.ci_rel_max", func(p computePass) float64 { return p.decomp.ciRelMax })
	med("core.value_calls", func(p computePass) float64 { return float64(p.decomp.valueCalls) })
	med("core.value_s", func(p computePass) float64 { return p.decomp.value.Seconds() })
	med("core.prefix_steps", func(p computePass) float64 { return float64(p.decomp.steps) })
	med("core.prefix_s", func(p computePass) float64 { return p.decomp.prefix.Seconds() })
	med("allocation.prefix_fallbacks", func(p computePass) float64 { return float64(p.fallbacks) })
	med("allocation.prefix_fallback_ratio", func(p computePass) float64 {
		return ratio(float64(p.fallbacks), float64(p.steps))
	})
	med("allocation.memo_hits", func(p computePass) float64 { return float64(p.memo.Hits) })
	med("allocation.memo_misses", func(p computePass) float64 { return float64(p.memo.Misses) })
	med("allocation.memo_hit_ratio", func(p computePass) float64 { return p.memo.HitRate() })

	var gc, alloc, walls, tracedWalls []float64
	for _, p := range untraced {
		gc = append(gc, float64(p.gcPause)/1e6)
		alloc = append(alloc, ratio(float64(p.allocBytes), float64(len(p.jobMS))))
		walls = append(walls, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}
	rep.set("runtime.gc_pause_ms", median(gc), len(gc))
	rep.set("runtime.alloc_bytes_per_op", median(alloc), len(alloc))
	rep.set("trace_overhead", median(tracedWalls)/median(walls)-1, len(tracedWalls))
}
