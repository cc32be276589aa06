package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/workloads"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/explore_digest.golden from the current explorer")

const digestGolden = "testdata/explore_digest.golden"

// digestConfigs are the configurations the digest golden pins: for the
// enumerative strategy the default guide, the microarchitecture-aware
// guide, the unguided naive search (capped so it stays fast), Sun-style
// candidate pruning (every direction scores 0, so the fanout cut exercises
// pure tie order) and a size-dependent fanout policy; and the improve
// strategy, which grows cuts through the same primitive.
func digestConfigs(lib *hwlib.Library) []struct {
	name string
	cfg  Config
} {
	def := DefaultConfig(lib)
	uarch := DefaultConfig(lib)
	uarch.CostModel = CostUarch
	naive := DefaultConfig(lib)
	naive.Naive = true
	naive.MaxExamined = 4000
	prune := DefaultConfig(lib)
	prune.CandidatePrune = 0.5
	decay := DefaultConfig(lib)
	decay.Fanout, decay.FanoutDesc = DepthDecayFanout(4), "decay:4"
	improve := DefaultConfig(lib)
	improve.Strategy = StrategyImprove
	return []struct {
		name string
		cfg  Config
	}{{"default", def}, {"uarch", uarch}, {"naive", naive}, {"prune", prune}, {"decay", decay}, {"improve", improve}}
}

// exploreDigest hashes everything observable about one exploration run:
// every candidate in order (block index, op set, the exact float bits of
// area and latency, port counts) and the Examined, PrunedDirections,
// Recorded and BySize statistics.
func exploreDigest(res *Result, blockIndex map[*ir.Block]int) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range res.Candidates {
		put(uint64(blockIndex[c.Block]))
		set := c.Set.Sorted()
		put(uint64(len(set)))
		for _, i := range set {
			put(uint64(i))
		}
		put(math.Float64bits(c.Area))
		put(math.Float64bits(c.Latency))
		put(uint64(c.Inputs))
		put(uint64(c.Outputs))
	}
	put(uint64(res.Stats.Examined))
	put(uint64(res.Stats.PrunedDirections))
	put(uint64(res.Stats.Recorded))
	sizes := make([]int, 0, len(res.Stats.BySize))
	for s := range res.Stats.BySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		put(uint64(s))
		put(uint64(res.Stats.BySize[s]))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestExploreDigestGolden pins the explorer bit for bit: for all 16
// benchmarks under each digest configuration, the candidate list and
// effort statistics must hash to the committed golden. A change that only
// makes the search cheaper (pruning work whose result is discarded) must
// leave every line untouched; run with -update only when the search itself
// is meant to change. -short runs (the race job) check only the nine
// benchmarks whose six explorations examine under 50,000 subgraphs in all.
func TestExploreDigestGolden(t *testing.T) {
	lib := hwlib.Default()
	short := map[string]bool{"ipchains": true, "url": true, "mpeg2dec": true, "gsmencode": true,
		"rijndael": true, "edgedetect": true, "djpeg": true, "rawdaudio": true, "h264deblock": true}
	var lines []string
	for _, b := range workloads.All() {
		if testing.Short() && !short[b.Name] {
			continue
		}
		blockIndex := make(map[*ir.Block]int, len(b.Program.Blocks))
		for i, blk := range b.Program.Blocks {
			blockIndex[blk] = i
		}
		for _, dc := range digestConfigs(lib) {
			res := Explore(b.Program, dc.cfg)
			lines = append(lines, fmt.Sprintf("%s %s examined=%d pruned=%d recorded=%d %s",
				b.Name, dc.name, res.Stats.Examined, res.Stats.PrunedDirections,
				res.Stats.Recorded, exploreDigest(res, blockIndex)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateDigest {
		if err := os.WriteFile(digestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantByRun := make(map[string]string) // "bench config" -> line
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		f := strings.Fields(l)
		wantByRun[f[0]+" "+f[1]] = l
	}
	if !testing.Short() && len(lines) != len(wantByRun) {
		t.Fatalf("digest has %d lines, golden %d", len(lines), len(wantByRun))
	}
	for _, l := range lines {
		f := strings.Fields(l)
		if w := wantByRun[f[0]+" "+f[1]]; l != w {
			t.Errorf("digest drift:\n got  %s\n want %s", l, w)
		}
	}
}
