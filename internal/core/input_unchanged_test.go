package core

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/explore"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// programIdentity renders everything observable about an input program:
// its canonical fingerprint and its exact iscasm text (op order, IDs,
// weights, successors).
func programIdentity(t *testing.T, p *ir.Program) string {
	t.Helper()
	var buf bytes.Buffer
	if err := asm.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return ir.Fingerprint(p) + "\n" + buf.String()
}

// TestCustomizeLeavesInputUnchanged is the contract that lets callers share
// one program across concurrent customizations (iscd memoizes each seed
// benchmark once per process; the experiment harness memoizes them per
// sweep): Customize must treat its input as read-only under every
// exploration strategy and with the compiler's rewriting options on.
func TestCustomizeLeavesInputUnchanged(t *testing.T) {
	for _, b := range workloads.All() {
		for _, strategy := range []string{explore.StrategyEnumerate, explore.StrategyImprove} {
			before := programIdentity(t, b.Program)
			_, err := Customize(b.Program, Config{
				Strategy:         strategy,
				Optimize:         true,
				UseVariants:      true,
				UseOpcodeClasses: true,
				Verify:           true,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, strategy, err)
			}
			if after := programIdentity(t, b.Program); after != before {
				t.Errorf("%s/%s: Customize modified its input program", b.Name, strategy)
			}
		}
	}
}
