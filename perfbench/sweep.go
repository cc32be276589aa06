package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/cfu"
	"repro/internal/compile"
	"repro/internal/experiment"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mdes"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vliwsim"
	"repro/internal/workloads"
)

// expectedSpeedups is the Figure-7 table every run is checked against:
// benchmark name -> enumerate speedup at budgets 1..15. TestExpectedSpeedups
// regenerates it from core.Customize, an independent path through the
// pipeline.
//
//go:embed expected_speedups.json
var expectedSpeedupsJSON []byte

// sweepParallelism is the harness's worker count for the timed sweep.
const sweepParallelism = 2

func loadExpected() (map[string][]float64, error) {
	var t map[string][]float64
	if err := json.Unmarshal(expectedSpeedupsJSON, &t); err != nil {
		return nil, fmt.Errorf("expected_speedups.json: %w", err)
	}
	for _, b := range workloads.All() {
		if len(t[b.Name]) != len(experiment.Budgets1to15()) {
			return nil, fmt.Errorf("expected_speedups.json: %s needs %d speedups", b.Name, len(experiment.Budgets1to15()))
		}
	}
	return t, nil
}

// sweepInputs is what the sweep's set-up builds: the benchmark programs,
// validated, and the expected table.
type sweepInputs struct {
	benches  []*workloads.Benchmark
	expected map[string][]float64
}

func setupSweep() (*sweepInputs, error) {
	in := &sweepInputs{benches: workloads.All()}
	for _, b := range in.benches {
		if err := ir.Validate(b.Program); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
	}
	var err error
	in.expected, err = loadExpected()
	return in, err
}

// sweepRun is one timed Figure-7 sweep: its wall time, the process CPU time
// it took per figure point and, for every figure point, how long after the
// sweep started its curve was available.
type sweepRun struct {
	wall       time.Duration
	cpuPerPtMS float64
	pointMS    []float64
}

// fig7Sweep runs the native Figure-7 sweep on a fresh harness — every
// domain, every benchmark on its own CFUs at budgets 1..15 — and then,
// outside the timed region, checks each point against the expected table.
func fig7Sweep(tel *telemetry.Registry, in *sweepInputs, o *outcome) (*experiment.Harness, sweepRun) {
	h := experiment.NewHarness()
	h.Parallelism = sweepParallelism
	h.Strategy = explore.StrategyEnumerate
	h.Telemetry = tel
	var run sweepRun
	var all []*experiment.SweepResult
	c0, t0 := cpuSeconds(), time.Now()
	for _, d := range workloads.DomainNames() {
		curves, err := h.Fig7Native(d, experiment.Budgets1to15())
		done := ms(time.Since(t0))
		o.check(err == nil, "sweep of domain %s: %v", d, err)
		for _, c := range curves {
			for range c.Points {
				run.pointMS = append(run.pointMS, done)
			}
		}
		all = append(all, curves...)
	}
	run.wall = time.Since(t0)
	run.cpuPerPtMS = (cpuSeconds() - c0) * 1000 / float64(len(run.pointMS))
	for _, c := range all {
		for i, pt := range c.Points {
			o.attempted++
			if c.Err != nil || pt.Truncated || pt.Speedup != in.expected[c.App][i] {
				o.failed++
				o.check(false, "sweep %s at budget %g: speedup %v (truncated %v), want %v",
					c.App, pt.Budget, pt.Speedup, pt.Truncated, in.expected[c.App][i])
			}
		}
	}
	return h, run
}

// timedSweeps repeats fig7Sweep until budget has elapsed (at least once)
// and returns the last harness and every run.
func timedSweeps(budget time.Duration, tel func() *telemetry.Registry, in *sweepInputs, o *outcome) (*experiment.Harness, []sweepRun) {
	var runs []sweepRun
	var h *experiment.Harness
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < budget {
		var r sweepRun
		h = nil
		debug.FreeOSMemory() // the previous sweep's garbage is not this sweep's cost
		h, r = fig7Sweep(tel(), in, o)
		runs = append(runs, r)
		fmt.Fprintf(os.Stderr, "perfbench: sweep %d: %.3f s wall, %.3f ms CPU per point\n", len(runs), r.wall.Seconds(), r.cpuPerPtMS)
	}
	return h, runs
}

// pointLatencies pools every figure point's availability time over runs.
func pointLatencies(runs []sweepRun) []float64 {
	var points []float64
	for _, r := range runs {
		points = append(points, r.pointMS...)
	}
	return points
}

// medianCPUPerPointMS is the sweeps' median CPU time per figure point.
func medianCPUPerPointMS(runs []sweepRun) float64 {
	var c []float64
	for _, r := range runs {
		c = append(c, r.cpuPerPtMS)
	}
	return median(c)
}

func runSweep(opt options) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	// Set-up takes milliseconds, so its median is over many repeats.
	setupS, in, err := medianSetup(101, setupSweep, func(*sweepInputs) {})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	budget := time.Duration(opt.seconds * float64(time.Second))
	if !opt.trace {
		h, runs := timedSweeps(budget, func() *telemetry.Registry { return nil }, in, o)
		o.metrics["cpu_ms_per_op"] = medianCPUPerPointMS(runs)
		checkSweepOutputs(h, in, opt.seed, o)
		return o, nil
	}

	// Traced: sweeps with the harness registry attached for half the time,
	// then the serial layer replay.
	var regs []*telemetry.Registry
	newReg := func() *telemetry.Registry {
		r := telemetry.New("perfbench")
		regs = append(regs, r)
		return r
	}
	h, traced := timedSweeps(budget/2, newReg, in, o)
	o.metrics["trace.cpu_ms_per_op"] = medianCPUPerPointMS(traced)
	o.metrics["tail.p50_ms"] = quantile(pointLatencies(traced), 0.5)
	o.metrics["tail.p95_ms"] = quantile(pointLatencies(traced), 0.95)
	o.metrics["tail.p99_ms"] = quantile(pointLatencies(traced), 0.99)
	var unattributed []float64
	for _, r := range regs {
		unattributed = append(unattributed, unattributedMS(r.Snapshot()))
	}
	o.metrics["experiment.unattributed_ms"] = median(unattributed)
	replayLayers(in, opt.seed, o)
	checkSweepOutputs(h, in, opt.seed, o)
	return o, nil
}

// unattributedMS is harness worker time spent outside every stage span:
// pool busy time minus the explore, combine, select and compile spans
// (compile.match and compile.schedule nest inside compile).
func unattributedMS(s *telemetry.Snapshot) float64 {
	busy := float64(s.Counters["pool.busy_ns"])
	for _, sp := range s.Spans {
		switch sp.Name {
		case "explore", "combine", "select", "compile":
			busy -= float64(sp.WallNS)
		}
	}
	return busy / 1e6
}

// replayLayers replays the sweep's 240 jobs serially through the public
// call of each layer, timing each call, and checks the replay reaches the
// same speedups as the harness. Benchmark order is shuffled by seed.
func replayLayers(in *sweepInputs, seed int64, o *outcome) {
	lib, mach := hwlib.Default(), machine.Default4Wide()
	tel := telemetry.New("perfbench")
	var exploreT, combineT, selectT, compileT, matchT, schedT time.Duration
	var examined, candidates, cfus, selectCalls, matchCalls, matches, replaced int
	order := rand.New(rand.NewSource(seed)).Perm(len(in.benches))
	for _, bi := range order {
		b := in.benches[bi]
		cfg := explore.DefaultConfig(lib)
		cfg.Strategy = explore.StrategyEnumerate
		t0 := time.Now()
		res := explore.Explore(b.Program, cfg)
		exploreT += time.Since(t0)
		examined += res.Stats.Examined
		candidates += len(res.Candidates)

		t0 = time.Now()
		cands, _ := cfu.CombinePartial(res, lib, cfu.CombineOptions{})
		combineT += time.Since(t0)
		cfus += len(cands)

		dfgs := make([]*ir.DFG, len(b.Program.Blocks))
		for i, blk := range b.Program.Blocks {
			dfgs[i] = ir.Analyze(blk)
		}
		for i, budget := range experiment.Budgets1to15() {
			t0 = time.Now()
			sel := cfu.Select(cands, cfu.SelectOptions{Budget: budget, Lib: lib, Telemetry: tel})
			selectT += time.Since(t0)
			selectCalls++
			m := mdes.FromSelection(b.Name, budget, sel)

			t0 = time.Now()
			out, rep, err := compile.Compile(b.Program, m, compile.Options{Machine: mach, Lib: lib})
			compileT += time.Since(t0)
			o.attempted++
			if err != nil || rep.Speedup != in.expected[b.Name][i] {
				o.failed++
				o.check(false, "replay %s at budget %g: %v, want speedup %v", b.Name, budget, err, in.expected[b.Name][i])
				continue
			}
			replaced += rep.ExactReplacements + rep.VariantReplacements

			for _, spec := range m.CFUs {
				for _, d := range dfgs {
					t0 = time.Now()
					found := graph.FindMatches(d, spec.Shape, graph.MatchOptions{})
					matchT += time.Since(t0)
					matchCalls++
					matches += len(found)
				}
			}
			for _, p := range []*ir.Program{b.Program, out} {
				for _, blk := range p.Blocks {
					nb, _, err := sched.Allocate(blk, mach.IntRegs)
					if err != nil {
						o.check(false, "replay %s: allocate %s: %v", b.Name, blk.Name, err)
						continue
					}
					t0 = time.Now()
					sched.List(nb, mach)
					schedT += time.Since(t0)
				}
			}
		}
	}
	m := o.metrics
	m["explore.ms"] = ms(exploreT)
	m["explore.examined"] = float64(examined)
	m["explore.yield"] = ratio(candidates, examined)
	m["cfu.combine_ms"] = ms(combineT)
	m["cfu.combine_yield"] = ratio(cfus, candidates)
	m["cfu.select_ms"] = ms(selectT)
	m["cfu.select_calls"] = float64(selectCalls)
	m["cfu.select_considered"] = float64(tel.Snapshot().Counters["select.considered"])
	m["graph.match_ms"] = ms(matchT)
	m["graph.match_calls"] = float64(matchCalls)
	m["compile.replaced_ratio"] = ratio(replaced, matches)
	m["sched.schedule_ms"] = ms(schedT)
	m["compile.ms"] = ms(compileT)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkSweepOutputs recompiles every point of the last sweep from the
// harness's own MDES and checks, outside the timed region: the recompile's
// speedup equals the expected table, the compiled program is equivalent to its source in the functional simulator, and
// the cycle-level VLIW simulator reproduces the report's baseline and
// custom cycle counts. It records the simulators' time as
// vliwsim.simulate_ms.
func checkSweepOutputs(h *experiment.Harness, in *sweepInputs, seed int64, o *outcome) {
	var simT time.Duration
	simSeed := uint32(seed)
	for _, b := range in.benches {
		t0 := time.Now()
		base, _, err := vliwsim.ProgramCycles(b.Program, h.Machine, h.Machine.IntRegs, simSeed)
		simT += time.Since(t0)
		o.check(err == nil, "vliwsim %s: %v", b.Name, err)
		for _, budget := range experiment.Budgets1to15() {
			m, err := h.MDESAt(b.Name, budget)
			if err != nil {
				o.check(false, "mdes %s at %g: %v", b.Name, budget, err)
				continue
			}
			out, rep, err := compile.Compile(b.Program, m, compile.Options{Machine: h.Machine, Lib: h.Lib})
			if err != nil {
				o.check(false, "compile %s at %g: %v", b.Name, budget, err)
				continue
			}
			want := in.expected[b.Name][int(budget)-1]
			o.check(rep.Speedup == want, "recompiled %s at %g: speedup %v, want %v", b.Name, budget, rep.Speedup, want)
			for i := range b.Program.Blocks {
				err := sim.Equivalent(b.Program.Blocks[i], out.Blocks[i], 10, simSeed+uint32(i))
				o.check(err == nil, "%s at %g, block %s: %v", b.Name, budget, b.Program.Blocks[i].Name, err)
			}
			t0 := time.Now()
			custom, _, err := vliwsim.ProgramCycles(out, h.Machine, h.Machine.IntRegs, simSeed)
			simT += time.Since(t0)
			o.check(err == nil && custom == rep.CustomCycles && base == rep.BaselineCycles,
				"%s at %g: vliwsim cycles %v/%v (%v), report %v/%v", b.Name, budget, base, custom, err, rep.BaselineCycles, rep.CustomCycles)
		}
	}
	o.metrics["vliwsim.simulate_ms"] = ms(simT)
}
