package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cfu"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mdes"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterizes the end-to-end flow. The zero value uses the
// paper's defaults everywhere.
type Config struct {
	// Lib is the hardware library (nil = hwlib.Default()).
	Lib *hwlib.Library
	// Machine is the baseline VLIW (nil = machine.Default4Wide()).
	Machine *machine.Desc
	// Constraints bound individual CFUs (zero = 5 inputs / 3 outputs).
	Constraints explore.Constraints
	// Budget is the total CFU die area in adder units (0 = 15, the
	// paper's largest sweep point).
	Budget float64
	// SelectMode picks the selection heuristic (default greedy
	// value/cost).
	SelectMode cfu.SelectMode
	// Strategy picks the candidate-discovery algorithm:
	// explore.StrategyEnumerate (the default; "" means the same) or
	// explore.StrategyImprove. Unknown names are rejected up front.
	Strategy string
	// CostModel picks the guide's pricing: explore.CostArea (the default;
	// "" means the same) or explore.CostUarch, the microarchitecture-aware
	// mode that prices candidates by register-port fit and pipeline stages
	// instead of die area.
	CostModel string
	// Seed perturbs the improve strategy's restart schedule; runs are
	// deterministic for any fixed value. Ignored by enumerate.
	Seed int64
	// UseVariants enables subsumed-subgraph matching in the compiler.
	UseVariants bool
	// UseOpcodeClasses enables wildcard (opcode-class) matching.
	UseOpcodeClasses bool
	// MultiFunction adds merged multi-function CFUs (wildcard pairs
	// generalized to opcode-class nodes) to the candidate pool before
	// selection — the paper's proposed future work.
	MultiFunction bool
	// Optimize runs CSE and dead-code elimination before matching; see
	// compile.Options.Optimize.
	Optimize bool
	// Verify cross-checks every transformed block against the original in
	// the functional simulator.
	Verify bool
	// Corpus, when non-nil, memoizes per-block exploration results across
	// runs: repeated and overlapping workloads replay memoized candidates
	// instead of re-searching, with selected results byte-identical to a
	// cold run. Bypassed automatically when MaxCandidates is set.
	Corpus *corpus.Corpus
	// Telemetry, when non-nil, receives per-stage spans and counters from
	// every stage of the flow (explore, combine, select, compile, sim).
	Telemetry *telemetry.Registry
	// Ctx, when non-nil, cancels the hardware-compiler stages (explore,
	// combine, select) cooperatively: each stage returns best-so-far
	// results tagged Truncated instead of aborting. nil = background.
	Ctx context.Context
	// ExploreDeadline bounds the exploration stage's wall-clock time (0 =
	// none). Expiry yields a Truncated, best-so-far candidate pool.
	ExploreDeadline time.Duration
	// MaxCandidates caps the candidates exploration records (0 =
	// unlimited); hitting the cap tags the result Truncated.
	MaxCandidates int
	// MaxExamined overrides the per-block subgraph-visit safety valve (0 =
	// the explorer's default of 200000).
	MaxExamined int
	// Workers bounds the goroutines exploring one program's blocks
	// concurrently (0 or 1 = serial). Results are merged in block order,
	// so output is identical at every setting; exploration falls back to
	// serial while an anytime budget is active.
	Workers int
	// Spare, when non-nil, gates the extra block-exploration workers: each
	// one must hold a token, so concurrent Customize calls sharing one pool
	// split a single goroutine budget instead of multiplying Workers.
	Spare *explore.Tokens
}

func (c Config) withDefaults() Config {
	if c.Lib == nil {
		c.Lib = hwlib.Default()
	}
	if c.Machine == nil {
		c.Machine = machine.Default4Wide()
	}
	if c.Constraints == (explore.Constraints{}) {
		c.Constraints = explore.DefaultConstraints()
	}
	if c.Budget == 0 {
		c.Budget = 15
	}
	return c
}

// Result is the outcome of a full customization run.
type Result struct {
	// MDES is the generated machine description.
	MDES *mdes.MDES
	// Candidates is the full candidate CFU list before selection.
	Candidates []*cfu.CFU
	// Program is the application recompiled with custom instructions.
	Program *ir.Program
	// Report carries the cycle accounting and speedup.
	Report *compile.Report
	// CorpusHits and CorpusMisses count the blocks exploration replayed
	// from (respectively searched into) cfg.Corpus. Both zero when no
	// corpus was attached. They describe how the result was produced, not
	// what it is — byte-identical results can carry different counts.
	CorpusHits   int
	CorpusMisses int
}

// Customize runs the complete flow of the paper on one application:
// dataflow-graph exploration, candidate combination, CFU selection, MDES
// generation, and compilation of the application onto its own extended
// machine.
func Customize(p *ir.Program, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := ir.Validate(p); err != nil {
		return nil, fmt.Errorf("core: input program: %w", err)
	}
	m, cands, estats, err := generate(p, cfg)
	if err != nil {
		return nil, err
	}
	out, rep, err := CompileWith(p, m, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		MDES: m, Candidates: cands, Program: out, Report: rep,
		CorpusHits: estats.CorpusHits, CorpusMisses: estats.CorpusMisses,
	}, nil
}

// GenerateMDES runs only the hardware compiler: profiled application in,
// prioritized CFU machine description out.
func GenerateMDES(p *ir.Program, cfg Config) (*mdes.MDES, error) {
	cfg = cfg.withDefaults()
	if err := ir.Validate(p); err != nil {
		return nil, fmt.Errorf("core: input program: %w", err)
	}
	m, _, _, err := generate(p, cfg)
	return m, err
}

func generate(p *ir.Program, cfg Config) (*mdes.MDES, []*cfu.CFU, explore.Stats, error) {
	if err := explore.ValidStrategy(cfg.Strategy); err != nil {
		return nil, nil, explore.Stats{}, fmt.Errorf("core: %w", err)
	}
	if err := explore.ValidCostModel(cfg.CostModel); err != nil {
		return nil, nil, explore.Stats{}, fmt.Errorf("core: %w", err)
	}
	ecfg := explore.DefaultConfig(cfg.Lib)
	ecfg.Strategy = cfg.Strategy
	ecfg.CostModel = cfg.CostModel
	ecfg.Seed = cfg.Seed
	ecfg.Constraints = cfg.Constraints
	ecfg.Telemetry = cfg.Telemetry
	ecfg.Ctx = cfg.Ctx
	ecfg.Deadline = cfg.ExploreDeadline
	ecfg.MaxCandidates = cfg.MaxCandidates
	if cfg.MaxExamined > 0 {
		ecfg.MaxExamined = cfg.MaxExamined
	}
	ecfg.Corpus = cfg.Corpus
	ecfg.Workers = cfg.Workers
	ecfg.Spare = cfg.Spare
	res := explore.Explore(p, ecfg)
	cands, ctrunc := cfu.CombinePartial(res, cfg.Lib, cfu.CombineOptions{Telemetry: cfg.Telemetry, Ctx: cfg.Ctx})
	if cfg.MultiFunction {
		cands = cfu.BuildMultiFunction(cands, cfg.Lib, 0)
	}
	sel := cfu.Select(cands, cfu.SelectOptions{
		Budget:    cfg.Budget,
		Mode:      cfg.SelectMode,
		Lib:       cfg.Lib,
		Telemetry: cfg.Telemetry,
		Ctx:       cfg.Ctx,
	})
	m := mdes.FromSelection(p.Name, cfg.Budget, sel)
	m.Truncated = m.Truncated || res.Stats.Truncated || ctrunc
	return m, cands, res.Stats, nil
}

// CompileWith runs only the software compiler: application plus MDES in,
// customized program and speedup report out.
func CompileWith(p *ir.Program, m *mdes.MDES, cfg Config) (*ir.Program, *compile.Report, error) {
	cfg = cfg.withDefaults()
	if err := ir.Validate(p); err != nil {
		return nil, nil, fmt.Errorf("core: input program: %w", err)
	}
	out, rep, err := compile.Compile(p, m, compile.Options{
		Machine:          cfg.Machine,
		Lib:              cfg.Lib,
		UseVariants:      cfg.UseVariants,
		UseOpcodeClasses: cfg.UseOpcodeClasses,
		Optimize:         cfg.Optimize,
		Telemetry:        cfg.Telemetry,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Verify {
		endSim := cfg.Telemetry.StartSpan("sim.verify")
		defer endSim()
		for i := range p.Blocks {
			if err := sim.Equivalent(p.Blocks[i], out.Blocks[i], 12, uint32(17*i+3)); err != nil {
				return nil, nil, fmt.Errorf("core: verification of block %s: %w", p.Blocks[i].Name, err)
			}
			cfg.Telemetry.Add("sim.blocks.verified", 1)
		}
	}
	return out, rep, nil
}
