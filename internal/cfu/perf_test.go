package cfu

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/workloads"
)

// warmPool returns the combined candidate list of one seed benchmark.
func warmPool(tb testing.TB, name string) []*CFU {
	tb.Helper()
	lib := hwlib.Default()
	b, err := workloads.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return Combine(explore.Explore(b.Program, explore.DefaultConfig(lib)), lib, CombineOptions{})
}

// TestSelectWarmAllocs bounds the allocations of a warm greedy Select call:
// once a list has been selected over, a repeat call allocates its result
// and per-call slices only. Value estimation runs candidates × rounds
// times per call, so any allocation left inside it would multiply past the
// bound at once.
func TestSelectWarmAllocs(t *testing.T) {
	cfus := warmPool(t, "sha")
	opts := SelectOptions{Budget: 15, Lib: hwlib.Default()}
	sel := Select(cfus, opts)
	if len(sel.CFUs) < 2 {
		t.Fatalf("want a multi-round selection, got %d CFUs", len(sel.CFUs))
	}
	const bound = 16
	got := testing.AllocsPerRun(20, func() { Select(cfus, opts) })
	if got > bound {
		t.Fatalf("warm Select allocates %.0f objects per call over %d candidates and %d rounds; want <= %d",
			got, len(cfus), len(sel.CFUs)+1, bound)
	}
}

// BenchmarkSelectBudgets measures the Figure-7 sweep's selection pattern:
// one warm candidate pool asked for every budget from 1 to 15.
func BenchmarkSelectBudgets(b *testing.B) {
	cfus := warmPool(b, "gsmencode")
	lib := hwlib.Default()
	Select(cfus, SelectOptions{Budget: 15, Lib: lib})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for budget := 1; budget <= 15; budget++ {
			Select(cfus, SelectOptions{Budget: float64(budget), Lib: lib})
		}
	}
}
