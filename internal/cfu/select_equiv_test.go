package cfu

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/workloads"
)

var updateSelect = flag.Bool("update", false, "rewrite testdata/select_digest.golden from the current selector")

const selectGolden = "testdata/select_digest.golden"

// selDigest renders everything a caller can observe of a selection: the
// picked CFUs in priority order and the exact bits of both totals.
func selDigest(sel *Selection) string {
	var b strings.Builder
	for _, c := range sel.CFUs {
		b.WriteString(c.Name())
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "area=%x savings=%x truncated=%v",
		math.Float64bits(sel.TotalArea), math.Float64bits(sel.EstimatedSavings), sel.Truncated)
	return b.String()
}

// selQuery is one Select call: which pool, the mode and the budget.
type selQuery struct {
	pool   string
	mode   SelectMode
	budget float64
}

// selPools derives the queried lists from one combined pool: the pool
// itself, its multi-function extension (which shares the pool's CFUs), and
// every other CFU of the pool, a list whose CFU IDs are not positions.
func selPools(cfus []*CFU, lib *hwlib.Library) map[string][]*CFU {
	var odd []*CFU
	for i := 1; i < len(cfus); i += 2 {
		odd = append(odd, cfus[i])
	}
	return map[string][]*CFU{"plain": cfus, "multi": BuildMultiFunction(cfus, lib, 0), "odd": odd}
}

// TestSharedPoolMatchesFreshPools pins that Select is a pure function of
// (candidate list, options) even though it lazily records relationships
// on the candidates it picks and caches per-list state between calls. The
// lists of one shared pool (selPools) answer every (mode, budget 1..15)
// query in shuffled order, with the library passed explicitly or left to
// the default; each answer must equal the one from lists built fresh for
// that query, bit for bit. The fresh answers are also pinned to a
// committed golden, so the selector's output cannot drift either.
func TestSharedPoolMatchesFreshPools(t *testing.T) {
	lib := hwlib.Default()
	names := []string{"sha", "crc", "gsmencode", "djpeg", "edgedetect"}
	if testing.Short() {
		names = names[:1]
	}
	var queries []selQuery
	for _, pool := range []string{"plain", "multi", "odd"} {
		for _, mode := range []SelectMode{GreedyRatio, GreedyValue, Knapsack} {
			for b := 1; b <= 15; b++ {
				queries = append(queries, selQuery{pool, mode, float64(b)})
			}
		}
	}
	var lines []string
	for _, name := range names {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := explore.Explore(b.Program, explore.DefaultConfig(lib))
		fresh := make(map[selQuery]string, len(queries))
		for _, q := range queries {
			list := selPools(Combine(res, lib, CombineOptions{}), lib)[q.pool]
			fresh[q] = selDigest(Select(list, SelectOptions{Budget: q.budget, Mode: q.mode, Lib: lib}))
			lines = append(lines, fmt.Sprintf("%s %s %v b=%g %s", name, q.pool, q.mode, q.budget, fresh[q]))
		}

		shared := selPools(Combine(res, lib, CombineOptions{}), lib)
		order := rand.New(rand.NewSource(int64(len(name)))).Perm(len(queries))
		for i, qi := range order {
			q := queries[qi]
			opts := SelectOptions{Budget: q.budget, Mode: q.mode}
			if i%2 == 0 {
				opts.Lib = lib
			}
			if got := selDigest(Select(shared[q.pool], opts)); got != fresh[q] {
				t.Errorf("%s %+v on the shared pool:\n got  %s\n want %s", name, q, got, fresh[q])
			}
		}
	}
	if testing.Short() {
		return
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateSelect {
		if err := os.WriteFile(selectGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(selectGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("selection drifted from %s at line %d:\n got  %s\n want %s", selectGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("selection drifted from %s: %d lines, want %d", selectGolden, len(gl), len(wl))
	}
}
