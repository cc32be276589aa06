package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/ir"
	"repro/internal/server"
	"repro/internal/workloads"
)

// The hit-mix workload: one iscd whose result cache the set-up warmed, so
// every timed request is a cache hit and the pipeline is bypassed. Half the
// requests name a seed benchmark, half send its iscasm text, which adds
// asm.Parse to the request path.
const (
	hitBudget        = 3
	hitMaxConcurrent = 2
	// hitWindow is how many requests one closed-loop window sends; the CPU
	// cost of a hit is the median over the run's windows.
	hitWindow = 1000
	// hitRate is the traced run's open-loop rate, about a fifth of what two
	// CPUs serve, at which it takes latency and the per-layer times.
	hitRate = 400
)

// hitService is one warmed iscd: its test server, the two request bodies
// per benchmark, and the reply each must get back byte for byte.
type hitService struct {
	ts     *httptest.Server
	timer  *handlerTimer // nil when untraced
	names  []string
	bodies [2][][]byte // [0] by name, [1] by iscasm text
	want   [][]byte
}

var hitKinds = [2]string{"name", "text"}

func (s *hitService) close() { s.ts.Close() }

// setupHit starts an iscd and warms its result cache.
func setupHit(trace bool) (*hitService, error) {
	srv := server.New(server.Config{MaxConcurrent: hitMaxConcurrent})
	s := &hitService{}
	var h http.Handler = srv.Handler()
	if trace {
		s.timer = newHandlerTimer(h)
		h = s.timer
	}
	s.ts = httptest.NewServer(h)
	if err := s.fill(newClient(1)); err != nil {
		s.close()
		return nil, err
	}
	if s.timer != nil {
		s.timer.take("warm")
	}
	return s, nil
}

// fill builds both spellings of every benchmark's request and warms the
// cache at the hit budget by name, recording each reply. The text spelling
// has the same program fingerprint, so it must hit the same entry.
func (s *hitService) fill(c *http.Client) error {
	for _, b := range workloads.All() {
		var text strings.Builder
		if err := asm.Write(&text, b.Program); err != nil {
			return err
		}
		byName, _ := json.Marshal(server.Request{Benchmark: b.Name, Budget: hitBudget})
		byText, _ := json.Marshal(server.Request{Program: text.String(), Budget: hitBudget})
		r := post(c, s.ts.URL+"/v1/customize", byName, "warm")
		if r.err != nil || r.status != http.StatusOK || r.header.Get("X-Iscd-Cache") != "miss" {
			return fmt.Errorf("warming %s: status %d cache %q: %v", b.Name, r.status, r.header.Get("X-Iscd-Cache"), r.err)
		}
		s.names = append(s.names, b.Name)
		s.bodies[0] = append(s.bodies[0], byName)
		s.bodies[1] = append(s.bodies[1], byText)
		s.want = append(s.want, r.body)
	}
	return nil
}

// hitPicks is the seeded request sequence: benchmark index and spelling.
type hitPick struct{ bench, kind int }

func hitPicks(seed int64, n, benches int) []hitPick {
	rng := rand.New(rand.NewSource(seed))
	out := make([]hitPick, n)
	for i := range out {
		out[i] = hitPick{rng.Intn(benches), rng.Intn(2)}
	}
	return out
}

// sender returns the driver's send function over picks: every reply must
// be a 200 cache hit, byte-identical to the warm-up reply.
func (s *hitService) sender(c *http.Client, picks []hitPick, hits *atomic.Int64) func(i int) func() bool {
	url := s.ts.URL + "/v1/customize"
	return func(i int) func() bool {
		p := picks[i%len(picks)]
		r := post(c, url, s.bodies[p.kind][p.bench], hitKinds[p.kind])
		return func() bool {
			hit := r.header.Get("X-Iscd-Cache") == "hit"
			if hit {
				hits.Add(1)
			}
			return r.err == nil && r.status == http.StatusOK && hit && bytes.Equal(r.body, s.want[p.bench])
		}
	}
}

func runHitMix(opt options) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	setupS, s, err := medianSetup(3, func() (*hitService, error) { return setupHit(opt.trace) }, (*hitService).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	o.metrics["setup_s"] = setupS
	c := newClient(hitMaxConcurrent)
	defer c.CloseIdleConnections()

	// An untraced run spends all its time in closed-loop windows. A traced
	// run spends the first half at the fixed rate.
	closedSecs := opt.seconds
	if opt.trace {
		closedSecs = opt.seconds / 2
		if err := hitFixedRate(s, c, opt.seed, opt.seconds/2, o); err != nil {
			return nil, err
		}
	}

	// Closed loop: the driver's two workers send each window's requests back
	// to back, so the process is never idle and its CPU time is the cost of
	// the hits (client side included).
	picks := hitPicks(opt.seed, hitWindow, len(s.names))
	var hits atomic.Int64
	send := s.sender(c, picks, &hits)
	debug.FreeOSMemory() // earlier garbage is not the windows' cost
	var cpuPerHit []float64
	failed := 0
	deadline := time.Now().Add(time.Duration(closedSecs * float64(time.Second)))
	for len(cpuPerHit) == 0 || time.Now().Before(deadline) {
		c0 := cpuSeconds()
		w := openLoop(hitWindow, unthrottled, hitMaxConcurrent, send)
		cpuPerHit = append(cpuPerHit, (cpuSeconds()-c0)*1000/hitWindow)
		failed += failures(w)
	}
	n := hitWindow * len(cpuPerHit)
	o.attempted += n
	o.failed += failed
	o.check(failed == 0, "%d of %d closed-loop replies were not byte-identical hits", failed, n)
	if opt.trace {
		o.metrics["trace.cpu_ms_per_op"] = median(cpuPerHit)
	} else {
		o.metrics["cpu_ms_per_op"] = median(cpuPerHit)
	}
	return o, nil
}

// hitFixedRate is the traced run's open-loop phase: seconds at hitRate, with
// the handler timer installed. It takes latency from due time, driver lag,
// handler time per spelling, allocation and GC pause, then times the
// request path's layers one call at a time.
func hitFixedRate(s *hitService, c *http.Client, seed int64, seconds float64, o *outcome) error {
	n := int(hitRate * seconds)
	picks := hitPicks(seed, n, len(s.names))
	var hits atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fixed := openLoop(n, hitRate, hitMaxConcurrent, s.sender(c, picks, &hits))
	runtime.ReadMemStats(&after)
	o.attempted += n
	o.failed += failures(fixed)
	o.check(failures(fixed) == 0, "%d of %d fixed-rate replies were not byte-identical hits", failures(fixed), n)
	lat := latencies(fixed)
	m := o.metrics
	m["tail.p50_ms"] = median(lat)
	m["tail.p95_ms"] = quantile(lat, 0.95)
	m["tail.p99_ms"] = quantile(lat, 0.99)
	m["driver.lag_p99_ms"] = quantile(lags(fixed), 0.99)
	m["driver.error_rate"] = float64(failures(fixed)) / float64(n)
	m["server.cache_hit_ratio"] = float64(hits.Load()) / float64(n)
	m["runtime.alloc_kb_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	names, texts := s.timer.take("name"), s.timer.take("text")
	m["server.hit_us"] = median(durationsUS(append(append([]time.Duration(nil), names...), texts...)))
	m["server.hit_name_us"] = median(durationsUS(names))
	m["server.hit_text_us"] = median(durationsUS(texts))
	return requestLayers(s, o)
}

// requestLayers times the request path's layers one call at a time on the
// hit-mix inputs: asm.Parse of each benchmark's text (time and bytes
// allocated), server.Resolve of each name, and ir.Fingerprint.
func requestLayers(s *hitService, o *outcome) error {
	const reps = 20
	var parse, resolve, fp []float64
	var allocBytes uint64
	var parses int
	for i := range s.names {
		var req server.Request
		if err := json.Unmarshal(s.bodies[1][i], &req); err != nil {
			return err
		}
		var p *ir.Program
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			parsed, err := asm.Parse(strings.NewReader(req.Program))
			parse = append(parse, us(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("parse %s: %w", s.names[i], err)
			}
			p = parsed
		}
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		parses += reps
		named := server.Request{Benchmark: s.names[i], Budget: hitBudget}.Normalized(0)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			_, _, err := server.Resolve(named)
			resolve = append(resolve, us(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("resolve %s: %w", s.names[i], err)
			}
			t0 = time.Now()
			ir.Fingerprint(p)
			fp = append(fp, us(time.Since(t0)))
		}
	}
	o.metrics["asm.parse_us"] = median(parse)
	o.metrics["asm.parse_alloc_kb"] = float64(allocBytes) / 1024 / float64(parses)
	o.metrics["server.resolve_us"] = median(resolve)
	o.metrics["ir.fingerprint_us"] = median(fp)
	return nil
}
