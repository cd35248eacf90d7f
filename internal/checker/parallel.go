package checker

import (
	"sync"
	"sync/atomic"
)

// This file holds the plumbing the two engines share: the execution
// budget and cancellation state, and FastMode's sharded run pool with its
// block-order merge. The work-stealing DFS engine is in worksteal.go and
// frontier.go.

// bounds is the shared execution budget and cancellation state of one
// exploration.
type bounds struct {
	// max bounds total executions (0 = unlimited); executed counts
	// reservations made so far and never exceeds max.
	max       int64
	executed  atomic.Int64
	cancelled atomic.Bool
}

// tryStart reserves budget for one execution and returns its 1-based
// start index, or 0 when the budget is spent or the exploration was
// cancelled. Reserving before running makes the total number of
// executions across all workers exactly equal the bound: the CAS loop
// never pushes the counter past max, so a cancelled exploration cannot
// overshoot MaxExecutions — each worker finishes at most the one
// execution it had already reserved before the cancellation landed (an
// overshoot of executions-in-flight, bounded by the worker count, never
// of the counter).
func (b *bounds) tryStart() int {
	if b.stopped() {
		return 0
	}
	for {
		cur := b.executed.Load()
		if b.max > 0 && cur >= b.max {
			return 0
		}
		if b.executed.CompareAndSwap(cur, cur+1) {
			return int(cur + 1)
		}
	}
}

// cancel stops the exploration (StopAtFirst, TimeBudget).
func (b *bounds) cancel() { b.cancelled.Store(true) }

// stopped reports whether the exploration was cancelled.
func (b *bounds) stopped() bool { return b.cancelled.Load() }

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

// mergeInto folds the per-block results into res in block order,
// offsetting each failure's Execution index by the number of executions
// that earlier blocks contributed. Each block retains up to maxFailures
// failures of its own, so the ordered concatenation always contains every
// failure a one-worker run would have retained (it keeps the first
// maxFailures in this exact order); the final cap then drops precisely
// the surplus, never a failure the one-worker run kept. Used by the
// FastMode merge; DFS folds through foldList instead.
func mergeInto(res *Result, locals []*Result, maxFailures int) {
	for _, local := range locals {
		if local == nil {
			continue
		}
		mergeResults(res, local, maxFailures)
	}
}
