package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ir"
)

// testDeadline is the server default deadline the key tests normalize
// against; any non-zero value works, the tests only need one fixed point.
const testDeadline = 2 * time.Second

// buildHashKernel emits the same two-block DFG with the pure ops of the hot
// block in a caller-chosen order and arbitrary op IDs.
func buildHashKernel(reordered bool) *ir.Program {
	p := ir.NewProgram("kernel")
	b := p.AddBlock("hot", 5000)
	x, y := b.Arg(ir.R(1)), b.Arg(ir.R(2))
	var rot, masked ir.Operand
	if reordered {
		masked = b.And(y, b.Imm(0xFF))
		rot = b.Rotl(x, b.Imm(7))
	} else {
		rot = b.Rotl(x, b.Imm(7))
		masked = b.And(y, b.Imm(0xFF))
	}
	b.Def(ir.R(3), b.Xor(rot, masked))
	tail := p.AddBlock("tail", 100)
	tail.Def(ir.R(4), tail.Add(tail.Arg(ir.R(3)), tail.Imm(1)))
	if reordered {
		// Renumber IDs too: identity must be structural, not positional.
		for _, op := range b.Ops {
			op.ID += 1000
		}
	}
	return p
}

// Two semantically identical programs whose blocks list the DFG in
// different orders (and with different op IDs) must share one cache key —
// that is what makes resubmission after cosmetic edits a cache hit.
func TestCacheKeyCanonicalizesNodeOrder(t *testing.T) {
	req := Request{Budget: 10}.Normalized(testDeadline)
	a, c := buildHashKernel(false), buildHashKernel(true)
	if a.String() == c.String() {
		t.Fatal("test is vacuous: programs have identical text")
	}
	if req.cacheKey("customize", ir.Fingerprint(a)) != req.cacheKey("customize", ir.Fingerprint(c)) {
		t.Error("reordered-but-identical programs produced different cache keys")
	}
}

func TestCacheKeySensitiveToProgram(t *testing.T) {
	req := Request{}.Normalized(testDeadline)
	base := req.cacheKey("customize", ir.Fingerprint(buildHashKernel(false)))
	p := buildHashKernel(false)
	p.Blocks[0].Weight = 4999
	if req.cacheKey("customize", ir.Fingerprint(p)) == base {
		t.Error("profile-weight change did not change the cache key")
	}
}

// requestIdentityFields lists the Request fields that select the input
// program rather than configure the pipeline. They reach the cache key
// through ir.Fingerprint of the resolved program — hashing the handle text
// itself would make renamed-but-identical programs distinct — so the
// reflection guard skips them.
var requestIdentityFields = map[string]bool{
	"Benchmark": true,
	"Program":   true,
}

// mutate sets field (addressable) to a value different from its current
// one, returning false for kinds the guard does not know how to perturb.
func mutate(field reflect.Value) bool {
	switch field.Kind() {
	case reflect.String:
		field.SetString(field.String() + "-mutant")
	case reflect.Bool:
		field.SetBool(!field.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		field.SetInt(field.Int() + 17)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		field.SetUint(field.Uint() + 17)
	case reflect.Float32, reflect.Float64:
		field.SetFloat(field.Float() + 2.5)
	default:
		return false
	}
	return true
}

// Every configuration field of Request must feed cacheKey: changing any one
// of them is different work and must never alias a cached result. The walk
// is reflective so a future knob added to Request but forgotten in cacheKey
// fails here instead of silently poisoning the cache.
func TestCacheKeySensitiveToEveryRequestField(t *testing.T) {
	p := buildHashKernel(false)
	base := Request{}.Normalized(testDeadline)
	baseKey := base.cacheKey("customize", ir.Fingerprint(p))
	seen := map[string]string{}
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if requestIdentityFields[name] {
			continue
		}
		r := base
		if !mutate(reflect.ValueOf(&r).Elem().Field(i)) {
			t.Fatalf("field %s has kind %s the guard cannot mutate; extend mutate()", name, rt.Field(i).Type.Kind())
		}
		key := r.cacheKey("customize", ir.Fingerprint(p))
		if key == baseKey {
			t.Errorf("changing %s did not change the cache key", name)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s collide on one key", name, prev)
		}
		seen[key] = name
	}
}

// Spelled-out defaults and zero values are the same request. The explicit
// spelling is derived from the normalized zero request itself, so a new
// field with a default added to normalized() is covered automatically.
func TestCacheKeyNormalizesDefaults(t *testing.T) {
	p := buildHashKernel(false)
	norm := Request{}.Normalized(testDeadline)
	implicit := norm.cacheKey("customize", ir.Fingerprint(p))
	// Normalizing must be idempotent...
	if again := norm.Normalized(testDeadline); again != norm {
		t.Errorf("normalized() is not idempotent: %+v != %+v", again, norm)
	}
	// ...and every individually spelled-out default must collide with zero.
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if requestIdentityFields[name] {
			continue
		}
		var r Request
		reflect.ValueOf(&r).Elem().Field(i).Set(reflect.ValueOf(norm).Field(i))
		if key := r.Normalized(testDeadline).cacheKey("customize", ir.Fingerprint(p)); key != implicit {
			t.Errorf("spelling out the default %s changed the cache key", name)
		}
	}
}

// Regression test: a request leaving deadline_ms at 0 and one spelling out
// the server's default deadline are the same work and must share one cache
// key — otherwise identical runs are neither coalesced by singleflight nor
// shared in the LRU. normalized() must resolve DeadlineMS against the
// server default before cacheKey hashes it.
func TestCacheKeyNormalizesDeadline(t *testing.T) {
	p := buildHashKernel(false)
	implicit := Request{}.Normalized(testDeadline).cacheKey("customize", ir.Fingerprint(p))
	spelled := Request{DeadlineMS: int(testDeadline / time.Millisecond)}
	explicit := spelled.Normalized(testDeadline).cacheKey("customize", ir.Fingerprint(p))
	if implicit != explicit {
		t.Error("deadline_ms 0 and the spelled-out server default produced different cache keys")
	}
	// A genuinely different deadline is different work (truncation point
	// differs) and must not collide with the default.
	other := Request{DeadlineMS: int(testDeadline/time.Millisecond) + 1000}
	if other.Normalized(testDeadline).cacheKey("customize", ir.Fingerprint(p)) == implicit {
		t.Error("a non-default deadline_ms collided with the default's cache key")
	}
}

// The strategy knob is part of cache identity: enumerate and improve runs
// on one program must occupy distinct cache entries, and the default
// spelling normalizes like every other field.
func TestCacheKeySeparatesStrategies(t *testing.T) {
	p := buildHashKernel(false)
	keys := map[string]string{}
	for _, strat := range []string{"", "enumerate", "improve"} {
		for _, cost := range []string{"", "area", "uarch"} {
			r := Request{Strategy: strat, CostModel: cost}.Normalized(testDeadline)
			keys[fmt.Sprintf("%s/%s", strat, cost)] = r.cacheKey("customize", ir.Fingerprint(p))
		}
	}
	if keys["/"] != keys["enumerate/area"] {
		t.Error("default strategy spelling did not normalize to enumerate/area")
	}
	distinct := map[string]bool{}
	for _, combo := range []string{"enumerate/area", "enumerate/uarch", "improve/area", "improve/uarch"} {
		if distinct[keys[combo]] {
			t.Errorf("strategy/cost combination %s aliases another combination", combo)
		}
		distinct[keys[combo]] = true
	}
}
