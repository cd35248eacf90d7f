package checker

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements parallel exploration (Config.Parallelism > 1).
//
// RandomWalk mode shards the walk count across workers; every execution
// already owns a private System, so only the Result merge matters.
//
// DFS mode uses the work-stealing engine (worksteal.go): the decision
// frontier is a set of unexplored subtree branches spread across
// per-worker Chase-Lev deques, and every branch's result is folded at
// its canonical decision-path position (frontier.go), which reproduces
// the sequential DFS output bit-for-bit on exhaustive runs no matter
// which worker explored which subtree. The same engine serves
// checkpoint/resume at any parallelism (checkpoint.go).

// exploreParallel is Explore for parallel DFS (Parallelism > 1, and any
// DFS run with checkpoint/resume/interrupt plumbing). c has defaults
// applied; RandomWalk and FastMode route through their own engines
// before this one (see the precedence on Config.RandomWalk).
func exploreParallel(c *Config, root func(*Thread)) *Result {
	start := time.Now()
	res := exploreWorkSteal(c, root)
	// Elapsed is the run's wall clock (plus, for resumed runs, the base
	// the engine restored from the checkpoint — the only reason this adds
	// instead of assigning). The merge deliberately never folds per-worker
	// timings into it (a per-worker sum can exceed wall clock by a factor
	// of Parallelism); the Stats timing fields, by contrast, are
	// cumulative across workers by design.
	res.Elapsed += time.Since(start)
	return res
}

// bounds is the shared execution budget and cancellation state of a
// parallel exploration.
type bounds struct {
	ctx    context.Context
	cancel context.CancelFunc
	// max bounds total executions (0 = unlimited); executed counts
	// reservations made so far and never exceeds max.
	max      int64
	executed atomic.Int64
}

func newBounds(maxExecutions, already int) *bounds {
	ctx, cancel := context.WithCancel(context.Background())
	b := &bounds{ctx: ctx, cancel: cancel, max: int64(maxExecutions)}
	b.executed.Store(int64(already))
	return b
}

// tryStart reserves budget for one execution. Reserving before running
// makes the total number of executions across all workers exactly equal
// the bound: the CAS loop never pushes the counter past max, so a
// cancelled exploration cannot overshoot MaxExecutions — each worker
// finishes at most the one execution it had already reserved before the
// cancellation landed (an overshoot of executions-in-flight, bounded by
// the worker count, never of the counter).
func (b *bounds) tryStart() bool {
	if b.ctx.Err() != nil {
		return false
	}
	if b.max <= 0 {
		return true
	}
	for {
		cur := b.executed.Load()
		if cur >= b.max {
			return false
		}
		if b.executed.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// stopped reports whether the exploration was cancelled (StopAtFirst).
func (b *bounds) stopped() bool { return b.ctx.Err() != nil }

// runPool runs tasks 0..tasks-1 on at most workers goroutines and waits
// for all of them. workers is clamped to [1, tasks]; zero tasks is a
// no-op.
func runPool(workers, tasks int, run func(task int)) {
	if tasks <= 0 {
		return
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				run(t)
			}
		}()
	}
	wg.Wait()
}

// mergeInto folds the per-task results into res in task order, offsetting
// each failure's Execution index by the number of executions that earlier
// tasks contributed. Each task retains up to maxFailures failures of its
// own, so the ordered concatenation always contains every failure a
// sequential run would have retained (sequential keeps the first
// maxFailures in this exact order); the final cap then drops precisely
// the surplus, never a failure the sequential run kept. Used by the
// random-walk merge; DFS folds through foldList instead.
func mergeInto(res *Result, locals []*Result, maxFailures int) {
	for _, local := range locals {
		if local == nil {
			continue
		}
		mergeResults(res, local, maxFailures)
	}
}

// exploreRandomWalk runs the RandomWalk engine at any Parallelism. Each
// walk index draws its decisions from an independent seed derived from
// (Seed, index), and workers own contiguous index blocks merged in block
// order — so walk i behaves identically no matter which worker runs it,
// and the Result (Executions, Failures, every non-timing Stat) is
// bit-identical across Parallelism 1/4/16 for a fixed budget. (The old
// per-worker seeding made results depend on the worker count, and
// RandomWalk with Parallelism > 1 silently fell into the DFS branch.)
//
// Each walk is its own exploration shard (fresh Scratch): spec-check
// caching never carries over between walks, trading cross-walk cache
// reuse for seed stability — cache counters are a deterministic function
// of the walk set alone. StopAtFirst and Interrupt cut the walk sequence
// nondeterministically when Parallelism > 1.
func exploreRandomWalk(c *Config, root func(*Thread)) *Result {
	res := &Result{}
	start := time.Now()
	defer func() { res.Elapsed += time.Since(start) }()
	total := c.randomWalkBudget()
	if total <= 0 {
		return res
	}
	workers := c.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > total {
		workers = total
	}
	if workers == 1 {
		walkBlock(c, res, root, 0, total, nil)
		return res
	}
	b := newBounds(0, 0)
	defer b.cancel()
	starts := make([]int, workers+1)
	for w := 0; w < workers; w++ {
		n := total / workers
		if w < total%workers {
			n++
		}
		starts[w+1] = starts[w] + n
	}
	locals := make([]*Result, workers)
	runPool(workers, workers, func(w int) {
		local := &Result{}
		locals[w] = local
		walkBlock(c, local, root, starts[w], starts[w+1], b)
	})
	mergeInto(res, locals, c.MaxFailures)
	return res
}

// walkBlock runs walk indices [from, to) into res, reseeding the chooser
// per index. b (nil when sequential) carries StopAtFirst cancellation.
func walkBlock(c *Config, res *Result, root func(*Thread), from, to int, b *bounds) {
	ch := &randChooser{disableRF: c.DisableStaleReads, stats: &res.Stats}
	pool := newExecPool(c)
	defer pool.close()
	for i := from; i < to; i++ {
		if b != nil && b.stopped() {
			return
		}
		if c.Interrupt != nil {
			select {
			case <-c.Interrupt:
				return
			default:
			}
		}
		ch.rng = rand.New(rand.NewSource(int64(derivedSeed(c.Seed, i))))
		scratch := c.newScratch() // each walk is one shard
		failed := runOne(c, res, ch, root, scratch, pool)
		if failed && c.StopAtFirst {
			if b != nil {
				b.cancel()
			}
			return
		}
	}
}
