package cfu

import (
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// SelectMode chooses the selection heuristic.
type SelectMode int

const (
	// GreedyRatio picks the best value/cost candidate each round and
	// re-estimates remaining values (the paper's default, Figure 4).
	GreedyRatio SelectMode = iota
	// GreedyValue picks the best raw value each round; the paper observes
	// it beats GreedyRatio at high budgets and loses at low ones.
	GreedyValue
	// Knapsack solves a 0/1 knapsack by dynamic programming over the
	// statically estimated values (the paper's slower ablation, reported
	// ~5-10% better on average than greedy).
	Knapsack
)

func (m SelectMode) String() string {
	switch m {
	case GreedyRatio:
		return "greedy-ratio"
	case GreedyValue:
		return "greedy-value"
	case Knapsack:
		return "knapsack-dp"
	}
	return "unknown"
}

// SelectOptions configures CFU selection.
type SelectOptions struct {
	// Budget is the total die area allowed, in adder units.
	Budget float64
	Mode   SelectMode
	// SubsumedDiscount is the cost multiplier applied to a CFU once a
	// selected CFU subsumes it (its hardware already exists; only decode
	// overhead remains). Default 0.05.
	SubsumedDiscount float64
	// WildcardDiscount is the cost multiplier applied to a CFU once a
	// selected CFU is its wildcard partner (most of the datapath is
	// shared). Default 0.25.
	WildcardDiscount float64
	// Lib supplies opcode classes for wildcard detection (nil = default).
	Lib *hwlib.Library
	// MaxVariants caps variant generation for selected CFUs (0 = 64).
	MaxVariants int
	// Telemetry, when non-nil, receives the select span and the
	// considered/selected/round counters.
	Telemetry *telemetry.Registry
	// Ctx, when non-nil, lets the caller cancel selection; the stage is
	// anytime: the greedy loop stops after the current round and the
	// knapsack DP truncates its item set, so the returned Selection is
	// always budget-respecting, just possibly not exhaustive. Truncation is
	// reported via Selection.Truncated.
	Ctx context.Context
}

// canceled reports whether the caller's context has expired, without
// blocking.
func (o *SelectOptions) canceled() bool {
	if o.Ctx == nil {
		return false
	}
	select {
	case <-o.Ctx.Done():
		return true
	default:
		return false
	}
}

// Selection is the result of the selection stage: CFUs in replacement
// priority order (the compiler replaces in the same order so the iterative
// value estimates stay accurate).
type Selection struct {
	CFUs      []*CFU
	TotalArea float64
	// EstimatedSavings is the selector's own weighted-cycle estimate.
	EstimatedSavings float64
	// Truncated reports that the caller's context expired mid-selection;
	// the CFUs picked before the cutoff still respect the budget.
	Truncated bool
}

// Select spends the area budget on candidate CFUs.
//
// Select lazily records subsumption and wildcard relationships on the
// candidates it picks and caches a per-list index on the candidates, so
// concurrent Select calls over the SAME candidates — one slice, or lists
// sharing CFUs such as a pool and its BuildMultiFunction extension — must
// be serialized by the caller (experiment.Harness holds a per-application
// lock). Lists with no CFU in common are independent.
func Select(cfus []*CFU, opts SelectOptions) *Selection {
	if opts.SubsumedDiscount == 0 {
		opts.SubsumedDiscount = 0.05
	}
	if opts.WildcardDiscount == 0 {
		opts.WildcardDiscount = 0.25
	}
	if opts.Lib == nil {
		opts.Lib = hwlib.Default()
	}
	defer opts.Telemetry.StartSpan("select")()
	switch opts.Mode {
	case Knapsack:
		return selectKnapsack(cfus, opts)
	default:
		return selectGreedy(cfus, opts)
	}
}

func selectGreedy(cfus []*CFU, opts SelectOptions) *Selection {
	sel := &Selection{}
	x := indexFor(cfus)
	remaining := opts.Budget
	// picked and costMul (the current discount for shared hardware) are
	// kept per CFU ID, through the index's slots.
	picked := make([]bool, len(cfus))
	costMul := make([]float64, len(cfus))
	for i := range costMul {
		costMul[i] = 1.0
	}
	cost := func(i int) float64 {
		a := cfus[i].Area * costMul[x.slot(i)]
		if a < 0.05 {
			a = 0.05
		}
		return a
	}
	discount := func(ids []int, m float64) {
		for _, id := range ids {
			if s, ok := x.slotOfID(id); ok && m < costMul[s] {
				costMul[s] = m
			}
		}
	}
	// Telemetry totals are accumulated locally and flushed once so the
	// hot scoring loop stays lock-free.
	var rounds, considered int64
	for {
		if opts.canceled() {
			sel.Truncated = true
			break
		}
		rounds++
		best := -1
		var bestScore float64
		for i := range cfus {
			if picked[x.slot(i)] || cost(i) > remaining+1e-9 {
				continue
			}
			considered++
			// The paper selects CFUs as if they had no subsumed subgraphs
			// or wildcards: value counts only the CFU's own occurrences.
			v := x.liveValue(i, 0)
			if v <= 0 {
				continue
			}
			var score float64
			if opts.Mode == GreedyValue {
				score = v
			} else {
				score = v / cost(i)
			}
			if best < 0 || score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		c := cfus[best]
		picked[x.slot(best)] = true
		sel.CFUs = append(sel.CFUs, c)
		sel.TotalArea += cost(best)
		remaining -= cost(best)

		// Claim the ops of the occurrences this CFU will cover, so other
		// candidates stop counting them (Figure 4's update step).
		sel.EstimatedSavings = x.claim(best, sel.EstimatedSavings)

		// Hardware sharing: subsumed CFUs and wildcard partners become
		// nearly free once this unit exists. Relationship discovery is
		// lazy — only selected CFUs pay for variant generation.
		ensureVariants(c, opts.MaxVariants)
		x.relate(best, opts.Lib)
		discount(c.Subsumes, opts.SubsumedDiscount)
		discount(c.Wildcards, opts.WildcardDiscount)
	}
	opts.Telemetry.Add("select.rounds", rounds)
	opts.Telemetry.Add("select.considered", considered)
	opts.Telemetry.Add("select.selected", int64(len(sel.CFUs)))
	return sel
}

// selectKnapsack solves a 0/1 knapsack over static values by dynamic
// programming, quantizing area to 1/20 adder. Unlike the greedy loop it
// ignores the interaction between overlapping candidates, so the result is
// post-processed: CFUs are ordered by ratio and the estimate recomputed
// with claiming, mirroring how the paper's DP variant still replaces
// greedily in the compiler.
func selectKnapsack(cfus []*CFU, opts SelectOptions) *Selection {
	const quantum = 0.05
	capacity := int(math.Floor(opts.Budget/quantum + 1e-9))
	if capacity <= 0 {
		return &Selection{}
	}
	n := len(cfus)
	w := make([]int, n)
	v := make([]float64, n)
	for i, c := range cfus {
		// The epsilon guards exactly-quantized areas: float division can
		// land a hair above the integer (e.g. a computed 0.30000000000000004
		// over 0.05 gives 6.000000000000001) and Ceil would then charge a
		// whole extra quantum.
		w[i] = int(math.Ceil(c.Area/quantum - 1e-9))
		if w[i] <= 0 {
			w[i] = 1
		}
		v[i] = c.Value
	}
	// dp[cap] = best value; keep[i][cap] via bitset rows.
	dp := make([]float64, capacity+1)
	keep := make([][]bool, n)
	truncated := false
	for i := 0; i < n; i++ {
		keep[i] = make([]bool, capacity+1)
		// An unfilled keep row simply excludes the item, so stopping the DP
		// mid-table still reconstructs a valid (budget-respecting) subset of
		// the items already processed.
		if opts.canceled() {
			truncated = true
			break
		}
		for c := capacity; c >= w[i]; c-- {
			if cand := dp[c-w[i]] + v[i]; cand > dp[c] {
				dp[c] = cand
				keep[i][c] = true
			}
		}
	}
	// Reconstruct, as positions in cfus.
	var chosen []int
	c := capacity
	for i := n - 1; i >= 0; i-- {
		if keep[i] != nil && keep[i][c] {
			chosen = append(chosen, i)
			c -= w[i]
		}
	}
	// Priority order: ratio, as the compiler replaces greedily.
	ratio := func(i int) float64 { return cfus[i].Value / math.Max(cfus[i].Area, 0.05) }
	sort.Slice(chosen, func(a, b int) bool { return ratio(chosen[a]) > ratio(chosen[b]) })
	opts.Telemetry.Add("select.rounds", 1)
	opts.Telemetry.Add("select.considered", int64(n))
	opts.Telemetry.Add("select.selected", int64(len(chosen)))
	sel := &Selection{Truncated: truncated}
	x := indexFor(cfus)
	for _, i := range chosen {
		cf := cfus[i]
		ensureVariants(cf, opts.MaxVariants)
		sel.CFUs = append(sel.CFUs, cf)
		sel.TotalArea += cf.Area
		sel.EstimatedSavings = x.claim(i, sel.EstimatedSavings)
	}
	return sel
}

// listIndex is the per-list state selection works over, kept between
// Select calls on one candidate list (the Figure-7 sweep asks the same list
// for budgets 1 through 15):
//
//   - a dense numbering of every op the list's occurrences cover, so the
//     claimed-op and disjointness tests are flat slice lookups instead of
//     per-candidate hash maps;
//   - the relationship index, built when an unrelated CFU is first picked,
//     and which CFUs have been related in it.
//
// It is cached on the list's CFUs and trusted only for a list holding
// exactly the same CFUs in the same order (indexFor). Like the
// relationship links it records, it is not safe for concurrent Select
// calls over one list.
type listIndex struct {
	cfus []*CFU // the indexed list, copied
	// CFU i owns the list's occurrences firstOcc[i] to firstOcc[i+1]
	// (CFU by CFU, in occurrence order); base[o] is the dense id of op 0
	// of occurrence o's block, so its ops are base[o]+NodeToOp[k].
	firstOcc []int32
	base     []int32
	// ids maps each CFU ID to the first position holding it; nil when
	// every CFU's ID is its position, as Combine and BuildMultiFunction
	// number them.
	ids map[int]int32

	claimed []bool   // per dense op: covered by a CFU selected in this call
	used    []uint32 // per dense op: stamped with epoch when used by the current walk
	epoch   uint32

	rel     *relationIndex
	relLib  *hwlib.Library // the class table related was computed under
	related []bool
}

// indexFor returns the selection index for cfus: the one cached on its
// CFUs when it covers exactly this list, otherwise a new one, which is
// then cached. Either way no op is claimed yet.
func indexFor(cfus []*CFU) *listIndex {
	if len(cfus) > 0 {
		if x := cfus[0].idx; x != nil && slices.Equal(x.cfus, cfus) {
			clear(x.claimed)
			return x
		}
	}
	x := newListIndex(cfus)
	for _, c := range cfus {
		c.idx = x
	}
	return x
}

// newListIndex numbers the ops of every block the list's occurrences touch
// densely, blocks in first-use order.
func newListIndex(cfus []*CFU) *listIndex {
	x := &listIndex{
		cfus:     slices.Clone(cfus),
		firstOcc: make([]int32, 0, len(cfus)+1),
		related:  make([]bool, len(cfus)),
	}
	blockBase := make(map[*ir.Block]int32)
	nOps := int32(0)
	for i, c := range cfus {
		if c.ID != i && x.ids == nil {
			x.ids = make(map[int]int32, len(cfus))
			for k, d := range cfus {
				if _, ok := x.ids[d.ID]; !ok {
					x.ids[d.ID] = int32(k)
				}
			}
		}
		x.firstOcc = append(x.firstOcc, int32(len(x.base)))
		for _, occ := range c.Occurrences {
			b, ok := blockBase[occ.Block]
			if !ok {
				b = nOps
				blockBase[occ.Block] = b
				nOps += int32(len(occ.Block.Ops))
			}
			x.base = append(x.base, b)
		}
	}
	x.firstOcc = append(x.firstOcc, int32(len(x.base)))
	x.claimed = make([]bool, nOps)
	x.used = make([]uint32, nOps)
	return x
}

// slot returns the position whose picked and discount state CFU i shares:
// the first one holding its ID.
func (x *listIndex) slot(i int) int {
	if x.ids == nil {
		return i
	}
	return int(x.ids[x.cfus[i].ID])
}

// slotOfID returns the slot of the CFUs with ID id, if the list has any.
func (x *listIndex) slotOfID(id int) (int, bool) {
	if x.ids == nil {
		return id, id >= 0 && id < len(x.cfus)
	}
	s, ok := x.ids[id]
	return int(s), ok
}

// liveValue adds to sum the profile-weighted savings of CFU i over a
// maximal set of its mutually disjoint occurrences that avoid claimed ops,
// taken greedily in occurrence order, and stamps their ops with a fresh
// epoch. Disjointness prevents double counting when the same operations
// appear in overlapping occurrences.
func (x *listIndex) liveValue(i int, sum float64) float64 {
	x.epoch++
	if x.epoch == 0 {
		clear(x.used)
		x.epoch = 1
	}
	c := x.cfus[i]
	bases := x.base[x.firstOcc[i]:x.firstOcc[i+1]]
	for j := range c.Occurrences {
		occ := &c.Occurrences[j]
		if !x.free(bases[j], occ.NodeToOp) {
			continue
		}
		for _, op := range occ.NodeToOp {
			x.used[bases[j]+int32(op)] = x.epoch
		}
		sum += occ.Weight * c.SavedPerExec
	}
	return sum
}

func (x *listIndex) free(base int32, ops []int) bool {
	for _, op := range ops {
		if id := base + int32(op); x.claimed[id] || x.used[id] == x.epoch {
			return false
		}
	}
	return true
}

// claim adds CFU i's live savings to sum, like liveValue, and marks the
// ops of the occurrences it counted as claimed.
func (x *listIndex) claim(i int, sum float64) float64 {
	sum = x.liveValue(i, sum)
	bases := x.base[x.firstOcc[i]:x.firstOcc[i+1]]
	for j := range x.cfus[i].Occurrences {
		for _, op := range x.cfus[i].Occurrences[j].NodeToOp {
			if id := bases[j] + int32(op); x.used[id] == x.epoch {
				x.claimed[id] = true
			}
		}
	}
	return sum
}

// relations returns the list's relationship index, building it on first
// use.
func (x *listIndex) relations() *relationIndex {
	if x.rel == nil {
		x.rel = newRelationIndex(x.cfus)
	}
	return x.rel
}

// relate records CFU i's subsumption and wildcard links within the list,
// once per list and opcode-class table: discovery is idempotent, so a CFU
// already related against these same candidates has nothing left to find.
func (x *listIndex) relate(i int, lib *hwlib.Library) {
	if x.relLib == nil || !x.relLib.SameClasses(lib) {
		x.relLib = lib
		clear(x.related)
	}
	if x.related[i] {
		return
	}
	x.related[i] = true
	r := x.relations()
	r.subsumptionFor(x.cfus[i])
	r.wildcardsFor(x.cfus[i], lib)
}
