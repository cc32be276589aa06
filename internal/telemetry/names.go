package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Canonical resilience counter names, shared between the iscd replica and
// the isccluster router so operators can join the two /metrics pages on
// one vocabulary. The literal values are a wire contract: dashboards and
// the CI smoke jobs grep for them, so changing a value is a breaking
// change (TestResilienceCounterNamesAreStable pins them).
const (
	// CounterShed counts requests refused by admission control or drain
	// (503 + Retry-After) instead of being run.
	CounterShed = "resilience.shed"
	// CounterDegraded counts requests admitted with a shrunken deadline:
	// overload mapped onto the anytime machinery (Truncated, not 503).
	CounterDegraded = "resilience.degraded"
	// CounterRetry counts re-attempts after a failed try, on any replica.
	CounterRetry = "resilience.retry"
	// CounterFailover counts attempts that moved to a different replica
	// than the previous try.
	CounterFailover = "resilience.failover"
)

// ResilienceCounters lists every canonical resilience counter in stable
// order. WritePrometheus emits each of them (zero when never incremented),
// so both iscd and isccluster /metrics always carry the full set.
func ResilienceCounters() []string {
	return []string{CounterShed, CounterDegraded, CounterRetry, CounterFailover}
}

// MetricName flattens a dotted counter/gauge name into the Prometheus
// identifier charset (dots and dashes become underscores).
func MetricName(name string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(name)
}

// WritePrometheus renders the snapshot as a flat, sorted, Prometheus-style
// text page: one `<prefix>_<name> <value>` line per counter and gauge,
// plus per-span count/wall/cpu lines. The canonical resilience counters
// are always present (defaulting to 0) so their names are stable across
// services regardless of which code paths have fired.
func (s *Snapshot) WritePrometheus(w io.Writer, prefix string) {
	counters := make(map[string]int64, len(s.Counters)+4)
	for _, name := range ResilienceCounters() {
		counters[name] = 0
	}
	for name, v := range s.Counters {
		counters[name] = v
	}
	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(w, "%s_%s %d\n", prefix, MetricName(name), counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "%s_%s %g\n", prefix, MetricName(name), s.Gauges[name])
	}
	for _, sp := range s.Spans {
		fmt.Fprintf(w, "%s_span_%s_count %d\n", prefix, MetricName(sp.Name), sp.Count)
		fmt.Fprintf(w, "%s_span_%s_wall_ns %d\n", prefix, MetricName(sp.Name), sp.WallNS)
		fmt.Fprintf(w, "%s_span_%s_cpu_ns %d\n", prefix, MetricName(sp.Name), sp.CPUNS)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
