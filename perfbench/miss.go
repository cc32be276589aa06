package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/experiment"
	"repro/internal/explore"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// The miss-mix workload: open loop through an in-process isccluster to two
// iscd replicas. Every timed request is a distinct key, so it misses the
// result cache; the set-up explored every (benchmark, strategy) once, so
// every block replays from the replica's corpus and search is bypassed.
const (
	missRate          = 20 // rps: about 40% of the two replicas' capacity
	missReplicas      = 2
	missMaxConcurrent = 1
	missInflight      = 2
	missWarmBudget    = 16 // outside the timed budgets, so warm-up keys never repeat
)

var missStrategies = []string{explore.StrategyEnumerate, explore.StrategyImprove}

// missService is the cluster and its replicas, with the telemetry each
// already accepts and, when traced, a timer around each public handler.
type missService struct {
	router      *cluster.Cluster
	front       *httptest.Server
	replicas    []*httptest.Server
	corpora     []*corpus.Corpus
	regs        []*telemetry.Registry // one per replica
	clusterReg  *telemetry.Registry
	routerTimer *handlerTimer   // nil when untraced
	replicaTime []*handlerTimer // nil when untraced
}

func (s *missService) close() {
	s.front.Close()
	s.router.Close()
	for _, r := range s.replicas {
		r.Close()
	}
	for _, c := range s.corpora {
		c.Close()
	}
}

// missKey is one request of the workload.
type missKey struct {
	bench    string
	budget   float64
	strategy string
}

func (k missKey) body() []byte {
	b, _ := json.Marshal(server.Request{Benchmark: k.bench, Budget: k.budget, Strategy: k.strategy})
	return b
}

// setupMiss starts the replicas and the router and sends one request per
// (benchmark, strategy) at the warm-up budget, so each replica's corpus
// holds its shard before timing starts.
func setupMiss(trace bool) (*missService, error) {
	s := &missService{clusterReg: telemetry.New("isccluster")}
	var rcs []cluster.ReplicaConfig
	for i := 0; i < missReplicas; i++ {
		c, err := corpus.Open("", 0)
		if err != nil {
			return nil, err
		}
		reg := telemetry.New("iscd")
		name := fmt.Sprintf("r%d", i+1)
		srv := server.New(server.Config{Name: name, MaxConcurrent: missMaxConcurrent, Corpus: c, Telemetry: reg})
		var h http.Handler = srv.Handler()
		if trace {
			t := newHandlerTimer(h)
			s.replicaTime = append(s.replicaTime, t)
			h = t
		}
		ts := httptest.NewServer(h)
		s.corpora = append(s.corpora, c)
		s.regs = append(s.regs, reg)
		s.replicas = append(s.replicas, ts)
		rcs = append(rcs, cluster.ReplicaConfig{Name: name, URL: ts.URL})
	}
	router, err := cluster.New(cluster.Config{Replicas: rcs, Telemetry: s.clusterReg})
	if err != nil {
		return nil, err
	}
	router.Start()
	s.router = router
	var h http.Handler = router.Handler()
	if trace {
		s.routerTimer = newHandlerTimer(h)
		h = s.routerTimer
	}
	s.front = httptest.NewServer(h)

	var warm []missKey
	for _, b := range workloads.All() {
		for _, st := range missStrategies {
			warm = append(warm, missKey{b.Name, missWarmBudget, st})
		}
	}
	c := newClient(missInflight)
	defer c.CloseIdleConnections()
	errs := make([]error, len(warm))
	openLoop(len(warm), unthrottled, missInflight, func(i int) func() bool {
		r := post(c, s.front.URL+"/v1/customize", warm[i].body(), "warm")
		return func() bool {
			if r.err != nil || r.status != http.StatusOK {
				errs[i] = fmt.Errorf("warming %v: status %d: %v", warm[i], r.status, r.err)
			}
			return errs[i] == nil
		}
	})
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// missKeys is every timed key — 16 benchmarks x budgets 1..15 x both
// strategies — in seeded order: the seed orders the 30 (budget, strategy)
// rounds, and within a round the benchmarks always arrive in the same
// order. A request queues behind the costly one before it on its replica,
// so which request follows which decides who waits; a fixed order within
// the round keeps that the same on every seed instead of making the
// latencies a draw of the seed.
func missKeys(seed int64) []missKey {
	rng := rand.New(rand.NewSource(seed))
	var rounds []missKey // bench unset
	for _, budget := range experiment.Budgets1to15() {
		for _, st := range missStrategies {
			rounds = append(rounds, missKey{budget: budget, strategy: st})
		}
	}
	var keys []missKey
	for _, r := range rng.Perm(len(rounds)) {
		for _, b := range workloads.Names() {
			k := rounds[r]
			k.bench = b
			keys = append(keys, k)
		}
	}
	return keys
}

// missReply is what the check of one timed request needs.
type missReply struct {
	reply
	key     missKey
	problem string // first failed check, "" = passed
}

func runMissMix(opt options) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	setupS, s, err := medianSetup(3, func() (*missService, error) { return setupMiss(opt.trace) }, (*missService).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	o.metrics["setup_s"] = setupS
	coldExplore := spanWallOf(snapshots(s.regs), "explore")

	keys := missKeys(opt.seed)
	if n := int(missRate * opt.seconds); n < len(keys) {
		keys = keys[:max(n, 1)]
	}
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		bodies[i] = k.body()
	}
	replies := make([]missReply, len(keys))
	debug.FreeOSMemory() // set-up's garbage is not the timed phase's cost
	before := snapshots(s.regs)
	c0 := cpuSeconds()
	clusterBefore := s.clusterReg.Snapshot()
	if opt.trace {
		s.routerTimer.take("warm")
		for _, t := range s.replicaTime {
			t.take("")
		}
	}
	c := newClient(missInflight)
	defer c.CloseIdleConnections()
	url := s.front.URL + "/v1/customize"
	samples := openLoop(len(keys), missRate, missInflight, func(i int) func() bool {
		r := post(c, url, bodies[i], "miss")
		return func() bool {
			replies[i] = missReply{reply: r, key: keys[i]}
			return r.err == nil && r.status == http.StatusOK
		}
	})
	cpuPerMissMS := (cpuSeconds() - c0) * 1000 / float64(len(keys))
	after := snapshots(s.regs)
	o.attempted = len(keys)
	encodeUS, corpusHits, corpusBlocks := checkMissReplies(replies, expected, o)
	for i := range samples {
		if replies[i].problem != "" {
			samples[i].ok = false
		}
	}
	o.failed = failures(samples)
	lat := latencies(samples)

	if !opt.trace {
		o.metrics["cpu_ms_per_op"] = cpuPerMissMS
		return o, nil
	}

	n := float64(len(keys))
	m := o.metrics
	m["trace.cpu_ms_per_op"] = cpuPerMissMS
	m["tail.p50_ms"] = classMedianMS(keys, lat)
	m["tail.p95_ms"] = quantile(lat, 0.95)
	m["tail.p99_ms"] = quantile(lat, 0.99)
	m["driver.lag_p99_ms"] = quantile(lags(samples), 0.99)
	m["driver.error_rate"] = float64(o.failed) / n
	var replicaDurs []time.Duration
	for _, t := range s.replicaTime {
		replicaDurs = append(replicaDurs, t.take("")...)
	}
	routerDurs := s.routerTimer.take("miss")
	m["cluster.hop_us"] = us(sumDurations(routerDurs)-sumDurations(replicaDurs)) / n
	m["server.miss_ms"] = median(durationsUS(replicaDurs)) / 1000
	clusterAfter := s.clusterReg.Snapshot()
	m["cluster.degraded"] = float64(clusterAfter.Counters[telemetry.CounterDegraded] - clusterBefore.Counters[telemetry.CounterDegraded])
	m["cluster.shed"] = float64(clusterAfter.Counters[telemetry.CounterShed] - clusterBefore.Counters[telemetry.CounterShed])
	m["cluster.retries"] = float64(clusterAfter.Counters[telemetry.CounterRetry] - clusterBefore.Counters[telemetry.CounterRetry])
	m["corpus.hit_ratio"] = ratio(corpusHits, corpusBlocks)
	m["corpus.replay_ms"] = (spanWallOf(after, "explore") - spanWallOf(before, "explore")) / n
	m["cfu.combine_ms"] = (spanWallOf(after, "combine") - spanWallOf(before, "combine")) / n
	m["cfu.select_ms"] = (spanWallOf(after, "select") - spanWallOf(before, "select")) / n
	m["compile.ms"] = (spanWallOf(after, "compile") - spanWallOf(before, "compile")) / n
	m["server.encode_us"] = median(encodeUS)
	m["server.cache_stores"] = float64(counterOf(after, "server.cache.store") - counterOf(before, "server.cache.store"))
	m["explore.cold_ms"] = coldExplore
	return o, nil
}

// classMedianMS is miss-mix's tail.p50_ms: the geometric mean, over the 32
// (benchmark, strategy) classes, of the median latency of each class's 15
// requests. Miss costs differ by up to 40x between classes, so the pooled
// latencies form a cluster per class and their median falls in a gap
// between clusters, where a small change in speed moves it far. Each
// class's own median sits inside its cluster, and the geometric mean moves
// by the same share as every class does.
func classMedianMS(keys []missKey, lat []float64) float64 {
	type class struct{ bench, strategy string }
	by := map[class][]float64{}
	for i, k := range keys {
		c := class{k.bench, k.strategy}
		by[c] = append(by[c], lat[i])
	}
	var logSum float64
	for _, xs := range by {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(by)))
}

// checkMissReplies checks every timed reply outside the timed region: a
// 200 cache miss, not truncated, whose corpus header shows every block
// replayed and none searched; enumerate speedups equal the expected table
// and improve selections fit their budget. It re-encodes each reply with
// the server's encoding, which must reproduce the body byte for byte, and
// returns the encode times and the corpus block counts.
func checkMissReplies(replies []missReply, expected map[string][]float64, o *outcome) (encodeUS []float64, hits, blocks int) {
	for i := range replies {
		r := &replies[i]
		k := r.key
		fail := func(format string, args ...any) {
			if r.problem == "" {
				r.problem = fmt.Sprintf(format, args...)
				o.check(false, "%v: %s", k, r.problem)
			}
		}
		if r.err != nil || r.status != http.StatusOK {
			fail("status %d: %v", r.status, r.err)
			continue
		}
		if c := r.header.Get("X-Iscd-Cache"); c != "miss" {
			fail("cache %q, want miss", c)
		}
		var h, searched int
		if _, err := fmt.Sscanf(r.header.Get("X-Iscd-Corpus"), "hits=%d misses=%d", &h, &searched); err != nil || searched != 0 || h == 0 {
			fail("corpus header %q, want only replayed blocks", r.header.Get("X-Iscd-Corpus"))
		}
		hits += h
		blocks += h + searched
		var resp server.Response
		if err := json.Unmarshal(r.body, &resp); err != nil {
			fail("decoding reply: %v", err)
			continue
		}
		t0 := time.Now()
		enc, err := json.MarshalIndent(resp, "", "  ")
		encodeUS = append(encodeUS, us(time.Since(t0)))
		if err != nil || string(append(enc, '\n')) != string(r.body) {
			fail("re-encoded reply differs from the body the server sent")
		}
		switch {
		case resp.Truncated:
			fail("truncated")
		case k.strategy == explore.StrategyEnumerate && resp.Speedup != expected[k.bench][int(k.budget)-1]:
			fail("speedup %v, want %v", resp.Speedup, expected[k.bench][int(k.budget)-1])
		case resp.MDES == nil || resp.MDES.TotalArea > k.budget:
			fail("selection does not fit budget %g", k.budget)
		}
	}
	return encodeUS, hits, blocks
}

func snapshots(regs []*telemetry.Registry) []*telemetry.Snapshot {
	out := make([]*telemetry.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

// spanWallOf sums one span's wall time over snapshots, in ms.
func spanWallOf(snaps []*telemetry.Snapshot, name string) float64 {
	var ns int64
	for _, s := range snaps {
		for _, sp := range s.Spans {
			if sp.Name == name {
				ns += sp.WallNS
			}
		}
	}
	return float64(ns) / 1e6
}

func counterOf(snaps []*telemetry.Snapshot, name string) int64 {
	var n int64
	for _, s := range snaps {
		n += s.Counters[name]
	}
	return n
}
