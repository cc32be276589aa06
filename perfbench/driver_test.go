package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDriverCountsStallFromDueTime runs the open-loop driver against a
// stub that serves one request at a time and stalls once. Requests due
// during the stall must show it in their latency and in the driver's lag,
// although each one, timed from its own send, is fast; and the driver must
// never have more than its in-flight limit outstanding.
func TestDriverCountsStallFromDueTime(t *testing.T) {
	const (
		n        = 200
		rate     = 200.0
		inflight = 2
		stallAt  = 50
		stall    = 200 * time.Millisecond
	)
	var serial sync.Mutex
	var cur, peak, served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := cur.Add(1)
		defer cur.Add(-1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		serial.Lock()
		defer serial.Unlock()
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	c := newClient(inflight)
	defer c.CloseIdleConnections()

	samples := openLoop(n, rate, inflight, func(i int) func() bool {
		r := post(c, ts.URL, nil, "")
		return func() bool { return r.err == nil && r.status == http.StatusOK }
	})

	if f := failures(samples); f != 0 {
		t.Fatalf("%d requests failed", f)
	}
	if p := peak.Load(); p > inflight {
		t.Errorf("stub saw %d requests in flight, the driver allows %d", p, inflight)
	}
	var lateFromDue, lateFromSend int
	for _, s := range samples {
		if s.latency > stall/2 {
			lateFromDue++
		}
		if s.latency-s.lag > stall/2 {
			lateFromSend++
		}
	}
	// About rate*stall/2 = 20 requests fall due in the stall's first half;
	// timed from send, only the stalled request and the one queued behind
	// it on the stub are slow.
	if lateFromDue < 15 {
		t.Errorf("%d requests over %v from their due time, want the stall to delay at least 15", lateFromDue, stall/2)
	}
	if lateFromSend > inflight {
		t.Errorf("%d requests over %v from their send time, want at most %d", lateFromSend, stall/2, inflight)
	}
	if lag := quantile(lags(samples), 0.99); lag < ms(stall/4) {
		t.Errorf("driver lag p99 %.1f ms, want the stall to show (>= %.0f ms)", lag, ms(stall/4))
	}
}
