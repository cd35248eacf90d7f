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
// sit about 10% above the measured costs (M&S Queue 10.9, Seqlock 4.1,
// MPMC Queue 6.4). An execution still allocates the structure object,
// the program's spawn closures and the engine's decision bookkeeping;
// a location handle, name, order table, clock or monitor call allocated
// per execution again fails the gate.
func TestSpecAllocsPerExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("explores two Figure 7 rows exhaustively")
	}
	for _, tc := range []struct {
		name  string
		bound float64
	}{
		{"M&S Queue", 12},
		{"Seqlock", 4.5},
		{"MPMC Queue", 7},
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
				t.Errorf("%s: %.1f allocs per execution, want <= %g", tc.name, per, tc.bound)
			}
		})
	}
}
