package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// iscasmText renders a seed benchmark as the iscasm text a client would
// submit in place of its name.
func iscasmText(t testing.TB, name string) string {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := asm.Write(&buf, b.Program); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func requestJSON(t testing.TB, req Request) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Named benchmarks resolve from a process-wide memo: the same program and
// fingerprint every time, and the fingerprint is the program's own.
// Unknown names are refused with 404 and never enter the memo.
func TestResolveMemoizesNamedPrograms(t *testing.T) {
	p1, fp1, _, err := ResolveFingerprint(Request{Benchmark: "crc"})
	if err != nil {
		t.Fatal(err)
	}
	p2, fp2, _, err := ResolveFingerprint(Request{Benchmark: "crc"})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || fp1 != fp2 {
		t.Error("a benchmark name resolved to a fresh program on the second request")
	}
	if fp1 != ir.Fingerprint(p1) {
		t.Error("memoized fingerprint differs from the program's fingerprint")
	}
	if _, status, err := Resolve(Request{Benchmark: "no-such-benchmark"}); err == nil || status != http.StatusNotFound {
		t.Errorf("unknown name: status %d, err %v; want 404", status, err)
	}
	if _, ok := namedPrograms["no-such-benchmark"]; ok || len(namedPrograms) != len(workloads.Names()) {
		t.Errorf("memo holds %d entries, want exactly the %d registered names", len(namedPrograms), len(workloads.Names()))
	}
}

// Two concurrent misses on one benchmark name at different budgets run the
// pipeline at the same time on the one memoized program. Under -race this
// proves the pipeline shares it read-only.
func TestConcurrentMissesShareNamedProgram(t *testing.T) {
	_, tel, ts := newTestServer(t, Config{MaxConcurrent: 2})
	// Hold both runs at the pipeline's entry so they overlap.
	restore, err := faultinject.Enable("server:crc=slow:100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	var wg sync.WaitGroup
	for _, budget := range []float64{3, 8} {
		body := requestJSON(t, Request{Benchmark: "crc", Budget: budget})
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/customize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("budget %g: %v", budget, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Iscd-Cache") != "miss" {
				t.Errorf("budget %g: status %d cache %q", budget, resp.StatusCode, resp.Header.Get("X-Iscd-Cache"))
			}
		}()
	}
	wg.Wait()
	if n := spanCount(tel, "server.customize"); n != 2 {
		t.Errorf("pipeline ran %d times, want 2", n)
	}
	p, _, err := Resolve(Request{Benchmark: "crc"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := asm.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	if buf.String() != iscasmText(t, "crc") {
		t.Error("the memoized crc program changed while serving requests")
	}
}

// A benchmark name and its iscasm text are two spellings of one program:
// whichever warms the cache, the other comes back as a byte-identical hit,
// for every seed benchmark.
func TestNameAndTextSpellingsShareCacheEntry(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	for _, name := range workloads.Names() {
		text := iscasmText(t, name)
		for _, order := range []struct {
			budget       float64
			warm, repeat Request
		}{
			{2, Request{Benchmark: name}, Request{Program: text}},
			{4, Request{Program: text}, Request{Benchmark: name}},
		} {
			// The improve strategy keeps the 32 pipeline runs quick; the
			// spelling reaches the cache key only through the fingerprint.
			for _, r := range []*Request{&order.warm, &order.repeat} {
				r.Budget, r.Strategy = order.budget, explore.StrategyImprove
			}
			resp, first := postCustomize(t, ts.URL, requestJSON(t, order.warm))
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Iscd-Cache") != "miss" {
				t.Fatalf("%s budget %g: warm-up status %d cache %q: %s",
					name, order.budget, resp.StatusCode, resp.Header.Get("X-Iscd-Cache"), first)
			}
			resp, again := postCustomize(t, ts.URL, requestJSON(t, order.repeat))
			if got := resp.Header.Get("X-Iscd-Cache"); got != "hit" {
				t.Errorf("%s budget %g: other spelling came back as %q, want hit", name, order.budget, got)
			}
			if !bytes.Equal(first, again) {
				t.Errorf("%s budget %g: the two spellings' replies differ", name, order.budget)
			}
		}
	}

	// The hdl endpoint resolves through the same step.
	_, byName := getHDL(t, ts.URL, "benchmark=crc&budget=5")
	resp, err := http.Post(ts.URL+"/v1/hdl", "application/json",
		strings.NewReader(requestJSON(t, Request{Program: iscasmText(t, "crc"), Budget: 5})))
	if err != nil {
		t.Fatal(err)
	}
	byText, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Iscd-Cache"); got != "hit" || !bytes.Equal(byName, byText) {
		t.Errorf("hdl by text after hdl by name: cache %q, identical bytes %t", got, bytes.Equal(byName, byText))
	}
}

// BenchmarkHit measures a result-cache hit through the handler, called
// directly on a warmed server, for both spellings of blowfish (the largest
// seed program). Tracked by the bench-guard baseline: its B/op pins that a
// hit neither rebuilds a named program nor parses text into a 1 MiB
// buffer.
func BenchmarkHit(b *testing.B) {
	s := New(Config{Telemetry: telemetry.New("bench")})
	h := s.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/customize", strings.NewReader(body)))
		return rec
	}
	bodies := map[string]string{
		"name": requestJSON(b, Request{Benchmark: "blowfish", Budget: 3}),
		"text": requestJSON(b, Request{Program: iscasmText(b, "blowfish"), Budget: 3}),
	}
	if rec := post(bodies["name"]); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
	}
	for _, spelling := range []string{"name", "text"} {
		body := bodies[spelling]
		b.Run(spelling, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := post(body); rec.Header().Get("X-Iscd-Cache") != "hit" {
					b.Fatalf("not a hit: status %d cache %q", rec.Code, rec.Header().Get("X-Iscd-Cache"))
				}
			}
		})
	}
}
