package harness

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestSpecAllocsPerExecution gates the heap allocations one exhaustive
// core.Explore execution costs, measured as the runtime.MemStats.Mallocs
// delta over Result.Executions. The count is deterministic up to a
// little runtime noise, so unlike wall clock it can gate CI. The bounds
// sit between the pooled spec monitor (about 37 on the M&S Queue and 19
// on Seqlock) and the per-call-map monitor it replaced (about 66 and 47):
// a return to per-execution monitor or per-call map allocation fails.
func TestSpecAllocsPerExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("explores two Figure 7 rows exhaustively")
	}
	for _, tc := range []struct {
		name  string
		bound float64
	}{
		{"M&S Queue", 45},
		{"Seqlock", 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := BenchmarkByName(tc.name)
			prog := b.Progs(b.Orders())[0]
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res := core.Explore(b.spec(Options{}), Options{}.ExplorerConfig(b.Name), prog)
			runtime.ReadMemStats(&after)
			if !res.Exhausted || res.FailureCount != 0 {
				t.Fatalf("exploration not clean: exhausted=%v failures=%d", res.Exhausted, res.FailureCount)
			}
			per := float64(after.Mallocs-before.Mallocs) / float64(res.Executions)
			t.Logf("%s: %.1f allocs/exec over %d executions", tc.name, per, res.Executions)
			if per > tc.bound {
				t.Errorf("%s: %.1f allocs per execution, want <= %.0f", tc.name, per, tc.bound)
			}
		})
	}
}
