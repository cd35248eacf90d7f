package harness

import (
	"fmt"
	"testing"

	"repro/internal/checker"
	"repro/internal/checker/model"
)

// The c11 backend must be bit-identical to the pre-backend checker: the
// consistency seam was extracted from system.go with the explicit
// contract that model.C11 (and the zero-value Model) reproduce the old
// inlined rules exactly. These goldens were captured before the seam
// existed; any drift in a non-timing counter means the extraction
// changed the explored space.

type goldenRow struct {
	executions, feasible, pruned int
	failures                     int
	exhausted                    bool
	stats                        checker.Stats
}

func c11Goldens() map[string]goldenRow {
	return map[string]goldenRow{
		"SPSC Queue": {
			executions: 96, feasible: 48, pruned: 48, failures: 0, exhausted: true,
			stats: checker.Stats{
				PrunedSleepSet: 12, PrunedFairness: 36, PrunedStepBound: 0,
				RFBranchPoints: 72, ScheduleBranchPoints: 23,
				ReplayedDecisions: 625, MaxDecisionDepth: 9, TotalSteps: 1784,
				Histories: 96, JustifySearches: 0,
				SpecCacheHits: 45, SpecCacheMisses: 3, SpecCacheEntries: 3,
			},
		},
		"M&S Queue": {
			executions: 1957, feasible: 1407, pruned: 550, failures: 0, exhausted: true,
			stats: checker.Stats{
				PrunedSleepSet: 523, PrunedFairness: 27, PrunedStepBound: 0,
				RFBranchPoints: 739, ScheduleBranchPoints: 1217,
				ReplayedDecisions: 28587, MaxDecisionDepth: 24, TotalSteps: 70708,
				Histories: 2252, JustifySearches: 1407,
				SpecCacheHits: 1396, SpecCacheMisses: 11, SpecCacheEntries: 11,
			},
		},
	}
}

func checkGolden(t *testing.T, label, name string, res *checker.Result) {
	t.Helper()
	want := c11Goldens()[name]
	if res.Executions != want.executions || res.Feasible != want.feasible ||
		res.Pruned != want.pruned || res.FailureCount != want.failures ||
		res.Exhausted != want.exhausted {
		t.Errorf("%s: result drifted from pre-backend golden:\n  want: exec=%d feas=%d pruned=%d fails=%d exhausted=%v\n  got:  %v (exhausted=%v)",
			label, want.executions, want.feasible, want.pruned, want.failures, want.exhausted, res, res.Exhausted)
	}
	if got := res.Stats.WithoutTimings(); got != want.stats {
		t.Errorf("%s: stats drifted from pre-backend golden:\n  want: %+v\n  got:  %+v", label, want.stats, got)
	}
}

// TestC11GoldenStats runs the golden workloads under the explicit c11
// model and the zero-value Model at workers 1, 4, and 16, requiring every
// non-timing counter to match the pre-refactor capture exactly.
func TestC11GoldenStats(t *testing.T) {
	names := []string{"SPSC Queue"}
	if !testing.Short() {
		names = append(names, "M&S Queue")
	}
	for _, name := range names {
		b := BenchmarkByName(name)
		if b == nil {
			t.Fatalf("benchmark %q missing", name)
		}
		for _, id := range []model.ID{"", model.C11} {
			for _, workers := range []int{1, 4, 16} {
				res := exploreBench(b, checker.Config{Parallelism: workers, Model: id})
				checkGolden(t, fmt.Sprintf("%s model=%q workers=%d", name, id, workers), name, res)
			}
		}
	}
}
