// Command perfbench is the repository benchmark. It runs one named
// workload against the customization pipeline and service through their
// public entry points, checks every output, and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload fig7-sweep --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, timed around the calls into each layer from
// this package (no span is added inside the program). METRICS.md defines
// every metric per workload and the layer each one should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// metricDef is one metric the benchmark prints: name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every untraced run
// prints all of them; METRICS.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the single-layer metrics of the traced run. A traced run
// prints all of them; a layer the workload's path does not reach reads 0.
var perLayer = []metricDef{
	{"explore.ms", "ms"},
	{"explore.examined", "count"},
	{"explore.yield", "ratio"},
	{"cfu.combine_ms", "ms"},
	{"cfu.combine_yield", "ratio"},
	{"cfu.select_ms", "ms"},
	{"cfu.select_calls", "count"},
	{"cfu.select_considered", "count"},
	{"graph.match_ms", "ms"},
	{"graph.match_calls", "count"},
	{"compile.replaced_ratio", "ratio"},
	{"sched.schedule_ms", "ms"},
	{"compile.ms", "ms"},
	{"experiment.unattributed_ms", "ms"},
	{"vliwsim.simulate_ms", "ms"},
	{"server.hit_us", "us"},
	{"server.hit_name_us", "us"},
	{"server.hit_text_us", "us"},
	{"asm.parse_us", "us"},
	{"asm.parse_alloc_kb", "KB"},
	{"server.resolve_us", "us"},
	{"ir.fingerprint_us", "us"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.gc_pause_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"cluster.hop_us", "us"},
	{"cluster.degraded", "count"},
	{"cluster.shed", "count"},
	{"cluster.retries", "count"},
	{"server.miss_ms", "ms"},
	{"corpus.hit_ratio", "ratio"},
	{"corpus.replay_ms", "ms"},
	{"server.encode_us", "us"},
	{"server.cache_stores", "count"},
	{"explore.cold_ms", "ms"},
	{"driver.lag_p99_ms", "ms"},
	{"driver.error_rate", "ratio"},
	{"trace.cpu_ms_per_op", "ms"},
	{"tail.p50_ms", "ms"},
	{"tail.p95_ms", "ms"},
	{"tail.p99_ms", "ms"},
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload run reports before formatting.
type outcome struct {
	// problems lists every failed output check (empty = correct).
	problems  []string
	attempted int
	failed    int
	metrics   map[string]float64
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runners maps each workload name to its runner.
var runners = map[string]func(options) (*outcome, error){
	"fig7-sweep": runSweep,
	"hit-mix":    runHitMix,
	"miss-mix":   runMissMix,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig7-sweep, hit-mix or miss-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 24, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	run, ok := runners[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	o, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	} else {
		o.metrics["peak_rss_mb"] = peakRSSMB()
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && *trace == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured %s = %v\n", *workload, d.name, v)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the CPU time the process has used so far, user and system,
// in seconds. The kernel leaves out time the host took the vCPU away (steal),
// so on a shared host it follows the work done, where wall time also
// follows the neighbours.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// medianSetup runs setup n times and returns the median CPU time of one
// run in seconds (see cpuSeconds) and the value the last run built;
// earlier values are torn down with closeFn before the next run starts.
func medianSetup[T any](n int, setup func() (T, error), closeFn func(T)) (float64, T, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		c0 := cpuSeconds()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		times = append(times, cpuSeconds()-c0)
		if i < n-1 {
			closeFn(v)
			// Collect the torn-down set-up and return its memory, so the
			// next one neither pays for its garbage nor adds to its peak.
			debug.FreeOSMemory()
		}
		last = v
	}
	return median(times), last, nil
}
