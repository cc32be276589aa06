package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// namedProgram is one seed benchmark as the service resolves it: the
// program, built and validated once per process, with its fingerprint.
// Requests share the program read-only, the way experiment.Harness shares
// its memoized benchmarks across sweep workers; core.Customize and
// core.GenerateMDES never mutate their input.
type namedProgram struct {
	bench *workloads.Benchmark
	fp    string
}

// namedPrograms memoizes the seed benchmarks by name. The map is filled
// once with one lazy entry per registered name and never written again,
// so lookups need no lock and an unknown name is never stored.
var namedPrograms = func() map[string]func() (*namedProgram, error) {
	m := make(map[string]func() (*namedProgram, error))
	for _, name := range workloads.Names() {
		m[name] = sync.OnceValues(func() (*namedProgram, error) {
			b, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			// Validation before fingerprinting: the canonical hash walks
			// the DFG and must only see well-formed (acyclic) programs.
			if err := ir.Validate(b.Program); err != nil {
				return nil, err
			}
			return &namedProgram{bench: b, fp: ir.Fingerprint(b.Program)}, nil
		})
	}
	return m
}()

// Resolve turns a request's benchmark name or iscasm text into a validated
// program, with the HTTP status to use on failure. It is ResolveFingerprint
// without the fingerprint.
func Resolve(req Request) (*ir.Program, int, error) {
	p, _, status, err := ResolveFingerprint(req)
	return p, status, err
}

// ResolveFingerprint turns a request's benchmark name or iscasm text into
// a validated program and its canonical fingerprint (ir.Fingerprint), with
// the HTTP status to use on failure. A benchmark name is served from a
// process-wide memo, so a resubmitted name costs a map lookup; iscasm text
// is parsed and validated once (asm.Parse validates) and fingerprinted
// once. The cluster router uses it to key consistent-hash routing with
// exactly the replica's semantics, so router and replica can never
// disagree about which program a request names. The returned program may
// be shared with concurrent requests and must not be mutated.
func ResolveFingerprint(req Request) (*ir.Program, string, int, error) {
	switch {
	case req.Benchmark != "" && req.Program != "":
		return nil, "", http.StatusBadRequest, fmt.Errorf("set benchmark or program, not both")
	case req.Benchmark != "":
		get, ok := namedPrograms[req.Benchmark]
		if !ok {
			_, err := workloads.ByName(req.Benchmark)
			return nil, "", http.StatusNotFound, err
		}
		np, err := get()
		if err != nil {
			return nil, "", http.StatusBadRequest, err
		}
		return np.bench.Program, np.fp, 0, nil
	case req.Program != "":
		p, err := asm.Parse(strings.NewReader(req.Program))
		if err != nil {
			return nil, "", http.StatusBadRequest, err
		}
		return p, ir.Fingerprint(p), 0, nil
	}
	return nil, "", http.StatusBadRequest, fmt.Errorf("request needs a benchmark name or an iscasm program")
}

// benchmarkInfos lists the seed benchmarks in registration order from the
// named-program memo.
func benchmarkInfos() ([]BenchmarkInfo, error) {
	out := make([]BenchmarkInfo, 0, len(namedPrograms))
	for _, name := range workloads.Names() {
		np, err := namedPrograms[name]()
		if err != nil {
			return nil, err
		}
		b := np.bench
		out = append(out, BenchmarkInfo{
			Name:        b.Name,
			Domain:      b.Domain,
			Description: b.Description,
			Blocks:      len(b.Program.Blocks),
			Ops:         b.Program.NumOps(),
		})
	}
	return out, nil
}
