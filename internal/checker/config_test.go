package checker

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/checker/model"
	"repro/internal/memmodel"
)

// TestConfigValidate pins the rejection of configurations that earlier
// versions silently mishandled: negative counts (a negative StoreBound
// was clamped up to 2 as if it were a small bound), FastMode quietly
// ignored checkpoint and resume settings instead of refusing them, and
// DFS quietly ignored TimeBudget (a negative one also silently meant
// "none"). MaxThreads is also capped at the sleep set's bitmask width.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" = valid
	}{
		{"zero", Config{}, ""},
		{"model-c11", Config{Model: model.C11}, ""},
		{"model-sc", Config{Model: model.SC}, ""},
		{"model-scatomics", Config{Model: model.SCAtomics}, ""},
		{"model-unknown", Config{Model: "tso"}, "unknown memory model"},
		{"negative-store-bound", Config{StoreBound: -1}, "StoreBound"},
		// Negative counts used to fall through their zero-means-default
		// rules: MaxThreads aborted the first thread with a bare panic,
		// MaxExecutions explored everything yet reported Exhausted
		// false, MaxSteps dropped the step bound, and MaxFailures
		// retained no failure at all.
		{"negative-max-threads", Config{MaxThreads: -1}, "MaxThreads must be >= 0"},
		{"negative-max-steps", Config{MaxSteps: -1}, "MaxSteps must be >= 0"},
		{"negative-max-executions", Config{MaxExecutions: -1}, "MaxExecutions must be >= 0"},
		{"negative-max-failures", Config{MaxFailures: -1}, "MaxFailures must be >= 0"},
		{"negative-trace-limit", Config{TraceLimit: -1}, "TraceLimit must be >= 0"},
		{"negative-parallelism", Config{Parallelism: -1}, "Parallelism must be >= 0"},
		{"max-threads-at-sleep-width", Config{MaxThreads: maxSleepThreads}, ""},
		{"max-threads-over-sleep-width", Config{MaxThreads: maxSleepThreads + 1}, "MaxThreads must be <= 64"},
		{"store-bound-one-clamps", Config{StoreBound: 1}, ""}, // documented min-clamp, not an error
		{"fastmode-plain", Config{FastMode: true}, ""},
		{"fastmode-checkpoint", Config{FastMode: true, Checkpoint: func(*Checkpoint) {}}, "cannot checkpoint"},
		{"fastmode-checkpoint-every", Config{FastMode: true, CheckpointEvery: 1}, "cannot checkpoint"},
		{"fastmode-resume", Config{FastMode: true, ResumeFrom: &Checkpoint{}}, "cannot resume"},
		{"fastmode-time-budget", Config{FastMode: true, TimeBudget: time.Second}, ""},
		{"dfs-time-budget", Config{TimeBudget: time.Second}, "applies only to FastMode"},
		{"negative-time-budget", Config{FastMode: true, TimeBudget: -1}, "TimeBudget must be >= 0"},
		{"negative-time-budget-dfs", Config{TimeBudget: -1}, "TimeBudget must be >= 0"},
		// Checkpoint-interval misconfigurations: a negative interval used
		// to fall through every `> 0` guard (behaving as "final snapshot
		// only" while still forcing the engine), and a positive interval
		// without a sink ticked a snapshot loop that delivered nowhere.
		{"negative-checkpoint-every", Config{CheckpointEvery: -1, Checkpoint: func(*Checkpoint) {}}, "CheckpointEvery must be >= 0"},
		{"checkpoint-every-no-sink", Config{CheckpointEvery: 1}, "no Checkpoint sink"},
		{"checkpoint-final-only", Config{Checkpoint: func(*Checkpoint) {}}, ""}, // 0 interval with a sink = final snapshot only
		{"checkpoint-periodic", Config{CheckpointEvery: 1, Checkpoint: func(*Checkpoint) {}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestExplorePanicsOnInvalidConfig: Explore treats an invalid Config like
// an invalid checkpoint — a caller bug, reported by panic.
func TestExplorePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Explore accepted a DFS TimeBudget without panicking")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "applies only to FastMode") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	Explore(Config{TimeBudget: time.Second}, func(root *Thread) {})
}

// routingProg is a tiny exhaustible program (relaxed SB) for the routing
// tests: DFS exhausts it in well under 100 executions, so the bounded
// sampling engine (Executions == budget, Exhausted == false) is
// distinguishable from the DFS engine (Exhausted == true).
func routingProg(root *Thread) {
	x := root.NewAtomicInit("x", 0)
	y := root.NewAtomicInit("y", 0)
	a := root.Spawn("a", func(tt *Thread) {
		x.Store(tt, memmodel.Relaxed, 1)
		_ = y.Load(tt, memmodel.Relaxed)
	})
	b := root.Spawn("b", func(tt *Thread) {
		y.Store(tt, memmodel.Relaxed, 1)
		_ = x.Load(tt, memmodel.Relaxed)
	})
	root.Join(a)
	root.Join(b)
}

// TestEngineRoutingPrecedence pins the two routes: FastMode, whatever
// else is set, runs its sampling budget; every other configuration runs
// the DFS engine, which at any Parallelism — with or without checkpoint
// plumbing — matches the reference sequential DFS.
func TestEngineRoutingPrecedence(t *testing.T) {
	ref := referenceExplore(Config{}, routingProg)
	if !ref.Exhausted {
		t.Fatalf("reference DFS did not exhaust: %v", ref)
	}
	if ref.Executions >= 100 {
		t.Fatalf("routing program too large for the routing probes: %d executions", ref.Executions)
	}

	// FastMode outranks the DFS engine: even with Parallelism set, the
	// run is a fixed sampling budget, never an exhausting DFS.
	fast := Explore(Config{FastMode: true, MaxExecutions: 100, Parallelism: 4, Seed: 3}, routingProg)
	if fast.Exhausted || fast.Executions != 100 {
		t.Errorf("FastMode + Parallelism routed wrong: exhausted=%v executions=%d, want false/100",
			fast.Exhausted, fast.Executions)
	}

	for _, par := range []int{0, 1, 4, 16} {
		cpCalls := 0
		eng := Explore(Config{Parallelism: par, Checkpoint: func(*Checkpoint) { cpCalls++ }}, routingProg)
		if cpCalls == 0 {
			t.Errorf("parallelism %d: the engine never delivered the final checkpoint snapshot", par)
		}
		requireIdentical(t, fmt.Sprintf("checkpointed parallelism %d", par), ref, eng)
		requireIdentical(t, fmt.Sprintf("parallelism %d", par), ref, Explore(Config{Parallelism: par}, routingProg))
	}
}
