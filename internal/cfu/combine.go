package cfu

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Occurrence is one place in the program where a CFU's pattern appears.
type Occurrence struct {
	Block    *ir.Block
	DFG      *ir.DFG
	Set      ir.OpSet
	NodeToOp []int // block op index of each pattern node: every op of Set
	Weight   float64
}

// CFU is a candidate custom function unit: an equivalence class of
// discovered subgraphs plus its hardware estimates.
type CFU struct {
	ID    int
	Shape *graph.Shape
	// Area is the unit's die area in adder units; Latency its pipelined
	// whole-cycle latency.
	Area    float64
	Latency int
	// SavedPerExec is the estimated cycles saved each time one occurrence
	// executes on the CFU instead of as primitive operations.
	SavedPerExec float64
	// Occurrences are all discovered instances, possibly overlapping.
	Occurrences []Occurrence
	// Value is the profile-weighted cycle-savings estimate over a maximal
	// disjoint subset of occurrences.
	Value float64
	// Subsumes / SubsumedBy record the identity-input relationship: this
	// CFU can execute every pattern of the CFUs it subsumes.
	Subsumes   []int
	SubsumedBy []int
	// Wildcards lists CFUs identical to this one except for one node whose
	// opcode falls in the same hardware class, so both can share one
	// multi-function unit.
	Wildcards []int
	// Variants are the subsumed-subgraph patterns this CFU's hardware can
	// also execute, for the compiler's generalized matching. They are
	// generated lazily (selection only pays for the CFUs it picks); the
	// sync.Once makes that lazy fill safe when goroutines share a
	// candidate list read-only.
	Variants     []*graph.Shape
	variantsOnce sync.Once

	// idx is the selection index of the list this CFU was last combined or
	// selected in; see indexFor.
	idx *listIndex
}

// Name returns the CFU's mnemonic, e.g. "cfu3<shl-and-add>".
func (c *CFU) Name() string { return fmt.Sprintf("cfu%d<%s>", c.ID, c.Shape.Mnemonic()) }

// CombineOptions tunes the combination stage.
type CombineOptions struct {
	// MaxVariants caps per-CFU subsumed-variant generation (0 = 64).
	MaxVariants int
	// MinSavedPerExec drops CFUs that save fewer cycles than this per
	// execution (default 0: keep anything that saves at least one cycle
	// per execution after rounding).
	MinSavedPerExec float64
	// Telemetry, when non-nil, receives the combine span and the
	// candidate-in/CFU-out counters.
	Telemetry *telemetry.Registry
	// Ctx, when non-nil, lets the caller cancel combination; the stage is
	// anytime and returns the CFUs grouped so far (CombinePartial reports
	// the truncation).
	Ctx context.Context
}

// Combine groups the explorer's candidates into candidate CFUs, estimates
// their value from profile weights, and records subsumption and wildcard
// relationships.
func Combine(res *explore.Result, lib *hwlib.Library, opts CombineOptions) []*CFU {
	cfus, _ := CombinePartial(res, lib, opts)
	return cfus
}

// CombinePartial is Combine with the anytime contract surfaced: when
// opts.Ctx is canceled mid-run it stops grouping, finishes value
// estimation for the CFUs built so far, and returns truncated=true. The
// partial CFU list is internally consistent (every returned CFU carries
// only the occurrences already folded in), just not exhaustive.
func CombinePartial(res *explore.Result, lib *hwlib.Library, opts CombineOptions) (out []*CFU, truncated bool) {
	defer opts.Telemetry.StartSpan("combine")()
	var cfus []*CFU
	bySig := make(map[string][]*CFU)

	for ci, cand := range res.Candidates {
		if opts.Ctx != nil && ci%64 == 0 {
			select {
			case <-opts.Ctx.Done():
				truncated = true
			default:
			}
			if truncated {
				break
			}
		}
		shape, nodeToOp, _ := graph.FromOpSet(cand.DFG, cand.Set)
		occ := Occurrence{
			Block: cand.Block, DFG: cand.DFG, Set: cand.Set,
			NodeToOp: nodeToOp, Weight: cand.Block.Weight,
		}
		sig := shape.Signature()
		var home *CFU
		for _, c := range bySig[sig] {
			if graph.Isomorphic(c.Shape, shape) {
				home = c
				break
			}
		}
		if home == nil {
			home = &CFU{
				ID:      len(cfus),
				Shape:   shape,
				Area:    shape.Area(lib),
				Latency: shape.Cycles(lib),
			}
			home.SavedPerExec = savedPerExec(shape, lib)
			cfus = append(cfus, home)
			bySig[sig] = append(bySig[sig], home)
		}
		home.Occurrences = append(home.Occurrences, occ)
	}

	// Drop CFUs that save nothing: a one-op CFU executes in the same cycle
	// count as the op itself.
	kept := cfus[:0]
	for _, c := range cfus {
		if c.SavedPerExec > opts.MinSavedPerExec && c.SavedPerExec > 0 {
			c.ID = len(kept)
			kept = append(kept, c)
		}
	}
	cfus = kept

	x := indexFor(cfus)
	for i, c := range cfus {
		c.Value = x.liveValue(i, 0)
	}
	opts.Telemetry.Add("combine.candidates.in", int64(len(res.Candidates)))
	opts.Telemetry.Add("combine.cfus.out", int64(len(cfus)))
	if truncated {
		opts.Telemetry.Add("combine.truncated", 1)
	}
	return cfus, truncated
}

// AnalyzeRelationships generates subsumed variants and records the
// subsumption and wildcard links for every CFU. The selection stage does
// this lazily for the handful of CFUs it picks; call this eagerly only when
// the whole candidate list must carry its relationships (reports, tests).
func AnalyzeRelationships(cfus []*CFU, lib *hwlib.Library, opts CombineOptions) {
	for _, c := range cfus {
		ensureVariants(c, opts.MaxVariants)
	}
	x := indexFor(cfus)
	for i := range cfus {
		x.relate(i, lib)
	}
}

func ensureVariants(c *CFU, maxVariants int) {
	c.variantsOnce.Do(func() {
		if c.Variants != nil {
			return // pre-populated (e.g. decoded from an MDES)
		}
		c.Variants = graph.SubsumedVariants(c.Shape, maxVariants)
		if c.Variants == nil {
			c.Variants = []*graph.Shape{}
		}
	})
}

// relationIndex orders a list's positions by shape signature and by shape
// dimensions, so per-CFU relationship discovery scans only the CFUs that
// can match instead of the whole list. The sorts are stable, so CFUs with
// equal keys stay in list order. Discovery is idempotent: relating a CFU
// again against the same list finds only links it already holds.
type relationIndex struct {
	cfus   []*CFU
	bySig  []int32
	byDims []int32
}

func newRelationIndex(cfus []*CFU) *relationIndex {
	r := &relationIndex{cfus: cfus, bySig: make([]int32, len(cfus))}
	for i := range r.bySig {
		r.bySig[i] = int32(i)
	}
	r.byDims = slices.Clone(r.bySig)
	slices.SortStableFunc(r.bySig, func(a, b int32) int {
		return strings.Compare(cfus[a].Shape.Signature(), cfus[b].Shape.Signature())
	})
	slices.SortStableFunc(r.byDims, func(a, b int32) int {
		return cmpDims(cfus[a].Shape, cfus[b].Shape)
	})
	return r
}

// cmpDims orders shapes by node, input and output counts: the dimensions
// two wildcard partners share.
func cmpDims(a, b *graph.Shape) int {
	return cmp.Or(cmp.Compare(len(a.Nodes), len(b.Nodes)),
		cmp.Compare(a.NumInputs, b.NumInputs),
		cmp.Compare(len(a.Outputs), len(b.Outputs)))
}

// run returns the stretch of order, a list sorted by some key, whose CFUs
// have the key f looks for; f compares a CFU's key with it. The stretch
// holds its CFUs in list order.
func (r *relationIndex) run(order []int32, f func(*CFU) int) []int32 {
	lo := sort.Search(len(order), func(k int) bool { return f(r.cfus[order[k]]) >= 0 })
	hi := lo
	for hi < len(order) && f(r.cfus[order[hi]]) == 0 {
		hi++
	}
	return order[lo:hi]
}

// subsumptionFor records which candidates a's hardware subsumes: every
// candidate whose pattern is isomorphic to one of a's variants.
func (r *relationIndex) subsumptionFor(a *CFU) {
	ensureVariants(a, 0)
	for _, v := range a.Variants {
		sig := v.Signature()
		for _, p := range r.run(r.bySig, func(c *CFU) int { return strings.Compare(c.Shape.Signature(), sig) }) {
			b := r.cfus[p]
			if b == a || len(b.Shape.Nodes) >= len(a.Shape.Nodes) {
				continue
			}
			if graph.Isomorphic(v, b.Shape) {
				if !containsInt(a.Subsumes, b.ID) {
					a.Subsumes = append(a.Subsumes, b.ID)
					b.SubsumedBy = append(b.SubsumedBy, a.ID)
				}
			}
		}
	}
}

// wildcardsFor records a's wildcard partners: candidates of identical
// structure differing at one node whose opcodes share a hardware class.
func (r *relationIndex) wildcardsFor(a *CFU, lib *hwlib.Library) {
	for _, p := range r.run(r.byDims, func(c *CFU) int { return cmpDims(c.Shape, a.Shape) }) {
		b := r.cfus[p]
		if b == a || containsInt(a.Wildcards, b.ID) {
			continue
		}
		na, nb, ok := graph.WildcardPair(a.Shape, b.Shape)
		if !ok {
			continue
		}
		ca := lib.ClassOf(a.Shape.Nodes[na].Code)
		cb := lib.ClassOf(b.Shape.Nodes[nb].Code)
		if ca == hwlib.ClassNone || ca != cb {
			continue
		}
		a.Wildcards = append(a.Wildcards, b.ID)
		b.Wildcards = append(b.Wildcards, a.ID)
	}
	sort.Ints(a.Wildcards)
}

// savedPerExec estimates cycles saved per execution: the subgraph's ops
// each occupy the single integer issue slot for a cycle in the baseline,
// while the CFU issues once and completes in its pipelined latency.
func savedPerExec(s *graph.Shape, lib *hwlib.Library) float64 {
	return float64(len(s.Nodes)) - float64(s.Cycles(lib))
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
