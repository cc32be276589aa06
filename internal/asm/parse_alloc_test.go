package asm_test

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	. "repro/internal/asm"
	"repro/internal/workloads"
)

// seedTexts renders every seed benchmark as iscasm text, in registration
// order: the inputs the iscd text path parses.
func seedTexts(tb testing.TB) (names, texts []string) {
	tb.Helper()
	for _, bench := range workloads.All() {
		var buf bytes.Buffer
		if err := Write(&buf, bench.Program); err != nil {
			tb.Fatalf("%s: write: %v", bench.Name, err)
		}
		names = append(names, bench.Name)
		texts = append(texts, buf.String())
	}
	return names, texts
}

// parseAllocLimit bounds the bytes one Parse of a seed benchmark may
// allocate. The texts are a few KB, so a parse sized to its input stays far
// below it, while a preallocated 1 MiB line buffer alone exceeds it.
const parseAllocLimit = 256 << 10

// Parsing must allocate in proportion to its input. The service parses
// every iscasm-text request, and a fixed 1 MiB scanner buffer once made a
// text cache hit cost several times a named one.
func TestParseAllocationSizedToInput(t *testing.T) {
	const runs = 10
	names, texts := seedTexts(t)
	for i, text := range texts {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := Parse(strings.NewReader(text)); err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
		})
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call before its timed runs.
		perParse := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if perParse >= parseAllocLimit {
			t.Errorf("%s: Parse of %d bytes allocated %d bytes (%.0f allocs), want < %d",
				names[i], len(text), perParse, allocs, parseAllocLimit)
		}
	}
}

// A line longer than the scanner's 1 MiB cap is still rejected, and the
// error says why.
func TestParseRejectsOverlongLine(t *testing.T) {
	src := "program p\nblock b weight 1\n; " + strings.Repeat("x", 1<<20) + "\n"
	_, err := Parse(strings.NewReader(src))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Parse of a 1 MiB line: got %v, want an error wrapping bufio.ErrTooLong", err)
	}
}

// BenchmarkParse parses the whole seed suite's iscasm text per op, the
// service's text path. Tracked by the bench-guard baseline: its B/op pins
// the input-sized scanner buffer.
func BenchmarkParse(b *testing.B) {
	_, texts := seedTexts(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if _, err := Parse(strings.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
