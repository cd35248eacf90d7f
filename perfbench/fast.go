package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/checker"
	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/structures/chaselev"
	"repro/internal/structures/mpmc"
	"repro/internal/structures/msqueue"
)

// Fast-screen budgets. A seeded bug must be found within seededRuns for
// any seed; the scaled ring is 4 threads × ringOpsPerThread operations.
const (
	unitRuns         = 2000
	seededRuns       = 2000
	ringRuns         = 3
	ringOpsPerThread = 25000
	ringCapacity     = 64
)

// screen is one fast-mode screen and its ground truth.
type screen struct {
	name       string
	prog       func(*checker.Thread)
	cfg        checker.Config
	wantDetect bool
	simOps     int // operations per run (scaled ring only)
}

// fastScreen samples every primary unit test, the two seeded §6.4.1 bugs
// and the scaled MPMC ring in fast mode at the command-line seed.
type fastScreen struct {
	screens []screen
	rng     *rand.Rand
}

func (w *fastScreen) setup(seed int64) error {
	w.screens = nil
	for _, b := range harness.Benchmarks() {
		w.screens = append(w.screens, screen{name: b.Name, prog: b.Progs(b.Orders())[0],
			cfg: checker.Config{FastMode: true, MaxExecutions: unitRuns, Seed: seed}})
	}
	ms := harness.BenchmarkByName("M&S Queue")
	cl := harness.BenchmarkByName("Chase-Lev Deque")
	if ms == nil || cl == nil {
		return fmt.Errorf("seeded-bug benchmarks missing from the registry")
	}
	seeded := checker.Config{FastMode: true, MaxExecutions: seededRuns, Seed: seed, StopAtFirst: true}
	w.screens = append(w.screens,
		screen{name: "M&S Queue [seeded enqueue bug]", prog: ms.Progs(msqueue.KnownBugEnqueue())[0], cfg: seeded, wantDetect: true},
		screen{name: "Chase-Lev Deque [seeded resize bug]", prog: cl.Progs(chaselev.KnownBugOrders())[1], cfg: seeded, wantDetect: true})
	ops := 4 * ringOpsPerThread
	w.screens = append(w.screens, screen{
		name: fmt.Sprintf("MPMC ring 4x%d ops", ringOpsPerThread),
		prog: ringProg(ringOpsPerThread, ringCapacity),
		// The step bound covers the operations plus spin retries.
		cfg:    checker.Config{FastMode: true, MaxExecutions: ringRuns, Seed: seed, MaxSteps: 100 * ops},
		simOps: ops,
	})
	w.rng = rand.New(rand.NewSource(seed))
	return nil
}

// ringProg is the production-sized fast-mode input: two producers and two
// consumers moving perThread values each through one bounded MPMC ring.
func ringProg(perThread, capacity int) func(*checker.Thread) {
	return func(root *checker.Thread) {
		q := mpmc.New(root, "q", nil, capacity)
		worker := func(name string, enq bool) *checker.Thread {
			return root.Spawn(name, func(tt *checker.Thread) {
				for i := 0; i < perThread; i++ {
					if enq {
						q.Enq(tt, memmodel.Value(i+1))
					} else {
						q.Deq(tt)
					}
				}
			})
		}
		ts := []*checker.Thread{worker("p1", true), worker("p2", true), worker("c1", false), worker("c2", false)}
		for _, t := range ts {
			root.Join(t)
		}
	}
}

func (w *fastScreen) pass(r *recorder) error {
	ps := r.trace.begin("pass", "fast-screen", 0)
	defer r.trace.end(ps)
	for _, i := range w.rng.Perm(len(w.screens)) {
		r.fast(w.screens[i], ps.id)
	}
	return nil
}

// fast runs one screen. Ground truth: a correct-order screen reports no
// failure; a seeded bug is found within the run budget.
func (r *recorder) fast(s screen, parent int64) {
	sp := r.trace.begin("checker.Explore[fast]", s.name, parent)
	cfg := r.hooks.wrap(s.cfg, r.trace, sp.id, s.name)
	t0 := time.Now()
	res := checker.Explore(cfg, s.prog)
	d := time.Since(t0)
	r.hooks.done()
	r.trace.end(sp)
	r.tally.add(res, d)
	why := ""
	switch {
	case s.wantDetect:
		r.tally.runsToDetect += res.Executions
		if res.FailureCount == 0 {
			why = fmt.Sprintf("seeded bug not found in %d runs", res.Executions)
		}
	case res.FailureCount > 0:
		f := res.FirstFailure()
		why = fmt.Sprintf("correct orders reported %d failure(s), first %s: %s", res.FailureCount, f.Kind, f.Msg)
	}
	switch {
	case s.simOps > 0:
		r.tally.simOps += int64(s.simOps) * int64(res.Executions)
		r.tally.simTime += d
	case !s.wantDetect:
		r.tally.fastRuns += res.Executions
		r.tally.fastTime += d
	}
	r.verdict("fast "+s.name, d, why)
}

// layers reruns the unit screens through the kernel layer.
func (w *fastScreen) layers(r *recorder, m metrics) error {
	var runs []kernelRun
	for _, s := range w.screens {
		if !s.wantDetect && s.simOps == 0 {
			runs = append(runs, kernelRun{s.name, s.cfg, s.prog})
		}
	}
	kernelLayer(r, runs, m)
	return nil
}

func (w *fastScreen) close() {}
