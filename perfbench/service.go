package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"time"
)

// reply is one HTTP exchange as the driver received it.
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// post sends one JSON request. The kind header only labels the request for
// handlerTimer; the program ignores it.
func post(c *http.Client, url string, body []byte, kind string) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(kindHeader, kind)
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, header: resp.Header, body: b, err: err}
}

// kindHeader labels a request ("name", "text", ...) for handlerTimer.
const kindHeader = "X-Perfbench-Kind"

// handlerTimer wraps a server's public handler and records how long each
// customize request spent inside it, by the request's kind label; other
// paths, such as the router's health probes, pass through untimed. It is
// the traced run's span around the HTTP layer; untraced runs do not
// install it.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	by   map[string][]time.Duration
}

func newHandlerTimer(next http.Handler) *handlerTimer {
	return &handlerTimer{next: next, by: map[string][]time.Duration{}}
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/customize" {
		t.next.ServeHTTP(w, r)
		return
	}
	kind := r.Header.Get(kindHeader)
	t0 := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(t0)
	t.mu.Lock()
	t.by[kind] = append(t.by[kind], d)
	t.mu.Unlock()
}

// take returns and clears the durations recorded under kind.
func (t *handlerTimer) take(kind string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.by[kind]
	delete(t.by, kind)
	return d
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func sumDurations(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
