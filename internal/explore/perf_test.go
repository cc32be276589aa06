package explore

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/hwlib"
	"repro/internal/ir"
)

// compareResults asserts two exploration results are identical: same
// candidates (set, block, costs, ports) in the same order, and the same
// aggregate statistics. Used to prove block-parallel exploration merges to
// the serial answer bit for bit.
func compareResults(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		w, g := want.Candidates[i], got.Candidates[i]
		if w.Block != g.Block || w.Set.Key() != g.Set.Key() ||
			w.Area != g.Area || w.Latency != g.Latency ||
			w.Inputs != g.Inputs || w.Outputs != g.Outputs {
			t.Fatalf("%s: candidate %d differs: %v vs %v", label, i, g, w)
		}
	}
	if got.Stats.Examined != want.Stats.Examined || got.Stats.Recorded != want.Stats.Recorded ||
		got.Stats.Truncated != want.Stats.Truncated {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, got.Stats, want.Stats)
	}
	if len(got.Stats.BySize) != len(want.Stats.BySize) {
		t.Fatalf("%s: BySize sizes differ", label)
	}
	for k, v := range want.Stats.BySize {
		if got.Stats.BySize[k] != v {
			t.Fatalf("%s: BySize[%d] = %d, want %d", label, k, got.Stats.BySize[k], v)
		}
	}
}

// TestParallelExploreDeterminism runs the same multi-block program serially
// and with several worker counts (with and without a token pool, including
// an empty pool that denies every extra worker) and requires bit-identical
// candidates and stats.
func TestParallelExploreDeterminism(t *testing.T) {
	p := ir.NewProgram("par")
	p.Blocks = append(p.Blocks,
		feistelBlock(100), denseBlock(24), feistelBlock(10), denseBlock(16))

	run := func(workers int, spare *Tokens) *Result {
		cfg := DefaultConfig(hwlib.Default())
		cfg.Workers = workers
		cfg.Spare = spare
		return Explore(p, cfg)
	}
	want := run(1, nil)
	if len(want.Candidates) == 0 {
		t.Fatal("serial run found no candidates")
	}
	for _, w := range []int{2, 4, 8} {
		compareResults(t, want, run(w, nil), fmt.Sprintf("workers=%d", w))
	}
	compareResults(t, want, run(8, NewTokens(0)), "workers=8, empty token pool")
	compareResults(t, want, run(8, NewTokens(8)), "workers=8, full token pool")
}

// TestGrowReleaseAllocFree bounds the steady-state allocation cost of the
// explorer's hottest operation: once the freelist is warm, growing a
// subgraph by one op and releasing it must not allocate at all.
func TestGrowReleaseAllocFree(t *testing.T) {
	ctx := newBlockCtx(feistelBlock(10), hwlib.Default())
	w := ctx.seed(0)
	nb := firstNeighbor(t, w)
	for i := 0; i < 4; i++ { // warm the freelist and slice capacities
		ctx.release(ctx.grow(w, nb))
	}
	if got := testing.AllocsPerRun(200, func() {
		ctx.release(ctx.grow(w, nb))
	}); got > 0 {
		t.Fatalf("grow+release allocates %.1f objects/op; want 0", got)
	}
}

// TestProbeAllocFree checks that scoring a growth direction — done for
// every direction, before the fanout cut and the visited test decide which
// ones are built — never allocates.
func TestProbeAllocFree(t *testing.T) {
	ctx := newBlockCtx(feistelBlock(10), hwlib.Default())
	w := ctx.grow(ctx.seed(0), firstNeighbor(t, ctx.seed(0)))
	nb := firstNeighbor(t, w)
	want := ctx.grow(w, nb)
	ctx.load(w)
	if got := testing.AllocsPerRun(200, func() {
		ctx.probe(w, nb)
	}); got > 0 {
		t.Fatalf("probe allocates %.1f objects/op; want 0", got)
	}
	g := ctx.probe(w, nb)
	if g.area != want.area || g.latency != want.latency || g.in != want.in || g.out != want.out {
		t.Fatalf("probe %+v disagrees with grow (area %v latency %v in %d out %d)",
			g, want.area, want.latency, want.in, want.out)
	}
}

// firstNeighbor returns the lowest op adjacent to w but outside it.
func firstNeighbor(t *testing.T, w *workItem) int {
	t.Helper()
	for wi, wd := range w.nbrUnion {
		if wi < len(w.set) {
			wd &^= w.set[wi]
		}
		if wd != 0 {
			return wi<<6 + bits.TrailingZeros64(wd)
		}
	}
	t.Fatal("candidate has no neighbor to grow into")
	return -1
}

// TestVisitedDupInsertAllocFree checks that re-offering an already-visited
// subgraph to the visited set — the common case on dense blocks — is
// allocation-free.
func TestVisitedDupInsertAllocFree(t *testing.T) {
	vs := newVisitedSet(4)
	b := make(bitset, 4)
	b[0], b[2] = 0xDEADBEEF, 1
	if !vs.insert(b) {
		t.Fatal("first insert not reported new")
	}
	if vs.insert(b) {
		t.Fatal("duplicate insert reported new")
	}
	if got := testing.AllocsPerRun(200, func() {
		vs.insert(b)
	}); got > 0 {
		t.Fatalf("duplicate insert allocates %.1f objects/op; want 0", got)
	}
}
