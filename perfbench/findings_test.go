package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cfu"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/server"
	"repro/internal/workloads"
)

// The benchmarks below re-measure behaviour the workloads deliberately
// avoid or aggregate away, so that later changes can cite a number:
//
//	go test -run '^$' -bench Finding -benchtime 1x
//
// They report with b.ReportMetric and assert nothing about the values.

// BenchmarkFindingDegradedHits sends the hit-mix requests through an
// isccluster with default admission at 200 rps. Requests above the class
// rate are admitted degraded with a shrunken deadline; the deadline is part
// of the replica's cache key, so warmed hits come back as misses.
func BenchmarkFindingDegradedHits(b *testing.B) {
	const rate, n = 200, 1000
	for i := 0; i < b.N; i++ {
		srv := server.New(server.Config{Name: "r1", MaxConcurrent: hitMaxConcurrent})
		replica := httptest.NewServer(srv.Handler())
		router, err := cluster.New(cluster.Config{Replicas: []cluster.ReplicaConfig{{Name: "r1", URL: replica.URL}}})
		if err != nil {
			b.Fatal(err)
		}
		router.Start()
		front := httptest.NewServer(router.Handler())
		s := &hitService{ts: front}
		c := newClient(hitMaxConcurrent)
		if err := s.fill(c); err != nil {
			b.Fatal(err)
		}
		picks := hitPicks(1, n, len(s.names))
		var misses, degraded, errors atomic.Int64
		samples := openLoop(n, rate, hitMaxConcurrent, func(i int) func() bool {
			p := picks[i]
			r := post(c, front.URL+"/v1/customize", s.bodies[p.kind][p.bench], hitKinds[p.kind])
			return func() bool {
				if r.err != nil || r.status != http.StatusOK {
					errors.Add(1)
					return false
				}
				if r.header.Get("X-Iscd-Cache") != "hit" {
					misses.Add(1)
				}
				if r.header.Get("X-Isccluster-Degraded") != "" {
					degraded.Add(1)
				}
				return true
			}
		})
		c.CloseIdleConnections()
		front.Close()
		router.Close()
		replica.Close()
		b.ReportMetric(float64(misses.Load()), "misses")
		b.ReportMetric(float64(degraded.Load()), "degraded")
		b.ReportMetric(float64(errors.Load()), "errors")
		b.ReportMetric(median(latencies(samples)), "p50_ms")
		b.ReportMetric(quantile(latencies(samples), 0.99), "p99_ms")
	}
}

// BenchmarkFindingWarmCombine times, per benchmark, what a warm miss still
// pays after the corpus replays exploration: explore (replay) and combine,
// which the corpus does not memoize. It reports gsmdecode, the costliest.
func BenchmarkFindingWarmCombine(b *testing.B) {
	lib := hwlib.Default()
	for i := 0; i < b.N; i++ {
		c, err := corpus.Open("", 0)
		if err != nil {
			b.Fatal(err)
		}
		cfg := explore.DefaultConfig(lib)
		cfg.Corpus = c
		for _, bench := range workloads.All() {
			explore.Explore(bench.Program, cfg) // cold: fills the corpus
			t0 := time.Now()
			res := explore.Explore(bench.Program, cfg)
			replay := time.Since(t0)
			t0 = time.Now()
			cfu.CombinePartial(res, lib, cfu.CombineOptions{})
			combine := time.Since(t0)
			b.Logf("%-12s replay %7.2f ms  combine %7.2f ms", bench.Name, ms(replay), ms(combine))
			if bench.Name == "gsmdecode" {
				b.ReportMetric(ms(replay), "gsmdecode_replay_ms")
				b.ReportMetric(ms(combine), "gsmdecode_combine_ms")
			}
		}
	}
}
