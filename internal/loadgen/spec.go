package loadgen

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/experiment"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// Spec is one client class of a load run: who it is, how fast it
// arrives, and what it asks for. Parse one from its wire form with
// ParseSpec:
//
//	slo=gold,rate=20,n=200,arrivals=poisson,bench=crc+sha-x16,budget=5,deadline_ms=2000
type Spec struct {
	// Name labels the spec in the report ("" = the SLO class name).
	Name string
	// SLO is the class every request carries: gold, silver, or bronze
	// ("" = silver).
	SLO string
	// Rate is the arrival rate in requests/second (required, > 0).
	Rate float64
	// Arrivals names the inter-arrival process ("" = poisson); Shape is
	// gamma's shape knob.
	Arrivals string
	Shape    float64
	// Benchmarks is the request mix, drawn uniformly per request. Entries
	// are seed benchmark names, unrolled variants like "sha-x16", or
	// seeded synthetic programs like "synth:seed=3:blocks=8:ops=512"
	// (both sent as iscasm program text). Empty = every seed benchmark
	// plus sha-x16.
	Benchmarks []string
	// Requests is how many arrivals to fire (required, > 0).
	Requests int
	// Budget is the area budget each request carries (0 = 5, a fast
	// setting that keeps load runs about arrival pressure, not pipeline
	// depth).
	Budget float64
	// DeadlineMS is the per-request deadline forwarded to the service
	// (0 = let the cluster's SLO mapping decide).
	DeadlineMS int
}

// ParseSpec parses the comma-separated key=value wire form of a Spec.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("spec field %q is not key=value", field)
		}
		var err error
		switch k {
		case "name":
			spec.Name = v
		case "slo":
			spec.SLO = v
		case "rate":
			spec.Rate, err = strconv.ParseFloat(v, 64)
		case "arrivals":
			spec.Arrivals = v
		case "shape":
			spec.Shape, err = strconv.ParseFloat(v, 64)
		case "bench":
			if v != "all" {
				spec.Benchmarks = strings.Split(v, "+")
			}
		case "n":
			spec.Requests, err = strconv.Atoi(v)
		case "budget":
			spec.Budget, err = strconv.ParseFloat(v, 64)
		case "deadline_ms":
			spec.DeadlineMS, err = strconv.Atoi(v)
		default:
			return Spec{}, fmt.Errorf("unknown spec key %q", k)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("spec field %q: %v", field, err)
		}
	}
	return spec.withDefaults()
}

// withDefaults validates the spec and fills defaults, including the full
// benchmark mix when none was given.
func (s Spec) withDefaults() (Spec, error) {
	if s.Rate <= 0 {
		return s, fmt.Errorf("spec needs rate > 0 (got %g)", s.Rate)
	}
	if s.Requests <= 0 {
		return s, fmt.Errorf("spec needs n > 0 (got %d)", s.Requests)
	}
	switch s.SLO {
	case "gold", "silver", "bronze":
	case "":
		s.SLO = "silver"
	default:
		return s, fmt.Errorf("unknown slo %q (want gold, silver, or bronze)", s.SLO)
	}
	if s.Name == "" {
		s.Name = s.SLO
	}
	if s.Arrivals == "" {
		s.Arrivals = ArrivalPoisson
	}
	if s.Budget == 0 {
		s.Budget = 5
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = DefaultMix()
	}
	for _, b := range s.Benchmarks {
		if _, err := resolveBenchmark(b); err != nil {
			return s, err
		}
	}
	return s, nil
}

// DefaultMix is the standard request mix: the 16 seed benchmarks (the
// paper's 13 plus the video domain) and the sha-x16 large unrolled DFG
// (the shootout's stress input), which exercises the anytime machinery at
// any deadline.
func DefaultMix() []string {
	mix := workloads.Names()
	mix = append(mix, fmt.Sprintf("%s-x%d", experiment.ShootoutUnrollApp, experiment.ShootoutUnrollFactor))
	return mix
}

// programCache memoizes the iscasm text of synthetic unrolled benchmarks
// — building sha-x16 per request would dominate the generator's own CPU.
// Guarded by programMu: request bodies render on per-arrival goroutines.
var (
	programMu    sync.Mutex
	programCache = map[string]string{}
)

// resolveBenchmark turns a mix entry into request fields: a plain seed
// benchmark name, or ("", text) for a generated variant shipped as program
// text — either an unrolled "<name>-x<k>" or a seeded synthetic
// "synth:<spec>" (internal/synth wire form; its colon-separated grammar
// has no commas or plus signs, so it nests inside spec fields and mixes).
func resolveBenchmark(name string) (body struct{ Benchmark, Program string }, err error) {
	if _, err := workloads.ByName(name); err == nil {
		body.Benchmark = name
		return body, nil
	}
	if specText, ok := strings.CutPrefix(name, "synth:"); ok {
		programMu.Lock()
		defer programMu.Unlock()
		if text, ok := programCache[name]; ok {
			body.Program = text
			return body, nil
		}
		spec, err := synth.ParseSpec(specText)
		if err != nil {
			return body, err
		}
		p, err := synth.Generate(spec)
		if err != nil {
			return body, err
		}
		var sb strings.Builder
		if err := asm.Write(&sb, p); err != nil {
			return body, fmt.Errorf("serializing %q: %v", name, err)
		}
		programCache[name] = sb.String()
		body.Program = sb.String()
		return body, nil
	}
	base, factorText, ok := strings.Cut(name, "-x")
	if !ok {
		return body, fmt.Errorf("unknown benchmark %q (want a seed benchmark or <name>-x<factor>)", name)
	}
	programMu.Lock()
	defer programMu.Unlock()
	if text, ok := programCache[name]; ok {
		body.Program = text
		return body, nil
	}
	factor, err := strconv.Atoi(factorText)
	if err != nil || factor < 2 {
		return body, fmt.Errorf("bad unroll factor in %q", name)
	}
	b, err := workloads.ByName(base)
	if err != nil {
		return body, fmt.Errorf("unknown base benchmark in %q: %v", name, err)
	}
	up, err := ir.UnrollProgram(b.Program, factor)
	if err != nil {
		return body, fmt.Errorf("unrolling %q: %v", name, err)
	}
	var sb strings.Builder
	if err := asm.Write(&sb, up); err != nil {
		return body, fmt.Errorf("serializing %q: %v", name, err)
	}
	programCache[name] = sb.String()
	body.Program = sb.String()
	return body, nil
}

// requestBody renders the JSON body of one request: benchmark picked by
// index from the mix (callers drive the index from their seeded rng).
func (s Spec) requestBody(pick int) ([]byte, error) {
	name := s.Benchmarks[pick%len(s.Benchmarks)]
	fields, err := resolveBenchmark(name)
	if err != nil {
		return nil, err
	}
	// Hand-rendered JSON keeps field order stable for debuggability; all
	// values are numbers or already-escaped program text.
	var sb strings.Builder
	sb.WriteString("{")
	if fields.Benchmark != "" {
		fmt.Fprintf(&sb, "%q:%q", "benchmark", fields.Benchmark)
	} else {
		fmt.Fprintf(&sb, "%q:%s", "program", strconv.Quote(fields.Program))
	}
	fmt.Fprintf(&sb, ",%q:%g", "budget", s.Budget)
	fmt.Fprintf(&sb, ",%q:%q", "slo", s.SLO)
	if s.DeadlineMS > 0 {
		fmt.Fprintf(&sb, ",%q:%d", "deadline_ms", s.DeadlineMS)
	}
	sb.WriteString("}")
	return []byte(sb.String()), nil
}

// benchLabel names the benchmark request i of the spec would carry (for
// reports and tests).
func (s Spec) benchLabel(pick int) string { return s.Benchmarks[pick%len(s.Benchmarks)] }
