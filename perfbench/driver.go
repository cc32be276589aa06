package main

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request as the driver saw it. Both durations are
// measured from the request's due time, so a stall that delays later sends
// shows in their latency, not only in the stalled request's.
type sample struct {
	lag     time.Duration // send time minus due time: how late the driver sent
	latency time.Duration // completion time minus due time
	ok      bool
}

// openLoop sends n requests on a fixed schedule, request i due at
// start+i/rate, whatever happened to earlier ones. At most inflight
// requests are outstanding: each of inflight workers takes the next due
// request in order, so when all are busy the next request waits in the
// driver and its lag and latency grow. send performs request i and returns
// the check of its reply, which runs after the request is timed.
func openLoop(n int, rate float64, inflight int, send func(i int) (check func() bool)) []sample {
	out := make([]sample, n)
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				check := send(i)
				done := time.Now()
				out[i] = sample{lag: sent.Sub(due), latency: done.Sub(due), ok: check()}
			}
		}()
	}
	wg.Wait()
	return out
}

// newClient returns an HTTP client holding at most conns connections, one
// per in-flight request the driver allows.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// latencies and lags extract one field of a run, in milliseconds.
func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = ms(s[i].latency)
	}
	return out
}

func lags(s []sample) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = ms(s[i].lag)
	}
	return out
}

func failures(s []sample) int {
	n := 0
	for i := range s {
		if !s[i].ok {
			n++
		}
	}
	return n
}

// unthrottled is an openLoop rate at which every request is due at once, so
// the in-flight limit alone paces the requests.
const unthrottled = 1e9

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
