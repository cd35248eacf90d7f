package checker

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the work-stealing DFS engine, which runs every
// exhaustive exploration at any Parallelism (and checkpoint/resume). Each
// worker owns a Chase-Lev deque (wsdeque.go) of frontier tasks
// (frontier.go): it pops its own bottom — descending into the subtree it
// just opened, the DFS order — and steals from the top of a victim's deque
// when dry, taking the shallowest (and so statistically largest)
// outstanding subtree. Results are bit-identical at every worker count
// because every task's result is folded at its canonical decision-path
// position (foldList), never in completion order. With one worker the
// pops follow the DFS order exactly, so the engine keeps that path cheap:
// a popped sibling flips one decision in place (dfsChooser.flip), and the
// leaf Result merges straight into its done left neighbour.

// wsEngine is one work-stealing exploration.
type wsEngine struct {
	c    *Config
	root func(*Thread)
	b    bounds
	fold foldList

	deques []wsDeque

	// unfinished counts created-but-not-finished tasks; the last decrement
	// to zero ends the run. Incremented before a task is published,
	// decremented when it completes or is abandoned (budget/stop).
	unfinished atomic.Int64
	// steals and busy are scheduler telemetry (Stats.Steals /
	// Stats.WorkerBusy); both are seeded from a resumed checkpoint.
	steals atomic.Int64
	busy   atomic.Int64

	// stop requests a graceful halt: workers finish their current
	// execution and exit, leaving unrun tasks pending in the fold list
	// (where a final checkpoint picks them up).
	stop atomic.Bool

	// Per-root-branch shard state (Config.NewScratch), created lazily
	// under scratchMu so the hook runs exactly once per branch whichever
	// workers explore it.
	scratchMu sync.Mutex
	scratches map[int]any

	// lot parks idle workers: version increments on every publish (and on
	// stop/done) so a sweep that raced a push never sleeps through it.
	lot struct {
		mu      sync.Mutex
		cond    sync.Cond
		version uint64
		done    bool
	}

	// resumed engine-level counters (frontier high-water mark of the
	// prior run segments).
	priorMaxFrontier int
	// startTime anchors this segment's wall clock (checkpoints add the
	// resumed base on top).
	startTime time.Time
	// rootTask is the fresh run's first task, the empty path.
	rootTask wsBranch
}

// exploreWorkSteal runs the engine; c has defaults applied. The returned
// Result's Elapsed is the resumed base only: Explore adds this run's wall
// clock.
func exploreWorkSteal(c *Config, root func(*Thread)) *Result {
	workers := max(c.Parallelism, 1)
	e := &wsEngine{
		c:         c,
		root:      root,
		deques:    make([]wsDeque, workers),
		startTime: time.Now(),
	}
	e.fold.maxFailures = c.MaxFailures
	e.lot.cond.L = &e.lot.mu

	already := 0
	var baseElapsed time.Duration
	if cp := c.ResumeFrom; cp != nil {
		already = e.restore(cp)
		baseElapsed = cp.Elapsed
	} else {
		e.rootTask.cell.task = &e.rootTask.task
		e.fold.appendCell(&e.rootTask.cell)
		e.deques[0].push(&e.rootTask.task)
		e.unfinished.Store(1)
	}
	e.b.max = int64(c.MaxExecutions)
	e.b.executed.Store(int64(already))
	if c.progress != nil {
		c.progress.attachEngine(&e.steals, &e.fold.pending)
	}
	if e.unfinished.Load() == 0 {
		// Resumed a completed run: nothing outstanding.
		e.lot.done = true
	}

	stopWatchers := e.startWatchers(baseElapsed)
	e.runWorkers(workers)
	stopWatchers()

	if c.Checkpoint != nil {
		// Final snapshot: with a drained frontier it is a single done
		// cell (resuming it just returns the result); otherwise it is the
		// outstanding frontier a resumed run continues from.
		c.Checkpoint(e.checkpoint(baseElapsed))
	}

	res := e.fold.foldResult()
	res.Stats.Steals += int(e.steals.Load())
	if hw := e.fold.frontierHighWater(); hw > res.Stats.MaxFrontier {
		res.Stats.MaxFrontier = hw
	}
	if e.priorMaxFrontier > res.Stats.MaxFrontier {
		res.Stats.MaxFrontier = e.priorMaxFrontier
	}
	res.Stats.WorkerBusy += time.Duration(e.busy.Load())
	if c.rfSeen != nil {
		// Exact final class count: the per-run snapshots folded from
		// worker results are monotone reads of the shared registry and may
		// trail it (see runOne); the workers have all stopped here.
		res.Stats.RFClasses = int(c.rfSeen.classes.Load())
	}
	// Exhausted: the frontier drained without a stop and without
	// consuming the entire execution budget — a space exactly the size of
	// the budget reports false, because nothing proves the budget was not
	// what ended the run.
	res.Exhausted = e.fold.pendingCount() == 0 && !e.b.stopped() &&
		(c.MaxExecutions == 0 || res.Executions < c.MaxExecutions)
	res.Elapsed = baseElapsed
	return res
}

// startWatchers starts the goroutines that turn Config.Interrupt into a
// stop request and deliver periodic checkpoints. The returned function
// stops them and waits for them to exit.
func (e *wsEngine) startWatchers(baseElapsed time.Duration) (stop func()) {
	c := e.c
	periodic := c.Checkpoint != nil && c.CheckpointEvery > 0
	if c.Interrupt == nil && !periodic {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	if c.Interrupt != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-c.Interrupt:
				e.requestStop()
			case <-done:
			}
		}()
	}
	if periodic {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(c.CheckpointEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					c.Checkpoint(e.checkpoint(baseElapsed))
				case <-done:
					return
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// runWorkers runs n workers and returns when all have exited. Worker 0
// runs on the calling goroutine.
func (e *wsEngine) runWorkers(n int) {
	if n == 1 {
		// Returning before the WaitGroup is declared keeps the one-worker
		// run from allocating it (the goroutines capture it).
		e.worker(0)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker(w)
		}()
	}
	e.worker(0)
	wg.Wait()
}

// wsWorker is one worker's private state.
type wsWorker struct {
	e    *wsEngine
	dq   *wsDeque
	d    *dfsChooser
	pool *execPool
	// chain holds the fnode of every decision on the chooser's current
	// path (chain[i] is d.decisions[i]), so popping a sibling of a node on
	// the path can flip that one decision instead of replaying the path.
	chain []*fnode
	// leaf is the Result the next execution is counted into. The fold
	// list merges it into a done left neighbour, after which it is reset
	// and reused, or keeps it, after which the worker allocates another.
	leaf *Result
	// subs is the reused buffer of one execution's new frontier tasks.
	subs []*wsTask
	// scratch caches the shard scratch of root branch scratchBranch.
	scratchBranch int
	scratch       any
}

// worker is one scheduler loop: drain the own deque bottom-first, then
// steal; park when the whole frontier is in flight elsewhere.
func (e *wsEngine) worker(id int) {
	w := &wsWorker{e: e, dq: &e.deques[id], d: newDFSChooser(e.c), pool: newExecPool(e.c), scratchBranch: -1}
	defer w.pool.close()
	for !e.stop.Load() {
		t := w.dq.popBottom()
		if t == nil {
			if t = e.acquire(id); t == nil {
				return
			}
		}
		w.runTask(t)
	}
}

// runTask explores one frontier entry: one execution plus the publication
// of the sibling branches it discovered.
func (w *wsWorker) runTask(t *wsTask) {
	e := w.e
	idx := 0
	if !e.stop.Load() {
		idx = e.b.tryStart()
	}
	if idx == 0 {
		// Budget exhausted or stop requested: leave the cell pending (the
		// checkpoint will carry it) and fold nothing.
		e.requestStop()
		e.taskDone()
		return
	}
	busyStart := time.Now()
	w.position(t)
	prefixLen := len(w.d.decisions)
	if w.leaf == nil {
		w.leaf = &Result{}
	}
	w.d.stats = &w.leaf.Stats
	failed := runOne(e.c, w.leaf, w.d, e.root, w.scratchFor(), w.pool, idx)
	subs := w.spawn(prefixLen)
	if e.fold.complete(t, w.leaf, subs) {
		w.leaf = nil
	} else {
		*w.leaf = Result{}
	}
	e.unfinished.Add(int64(len(subs)))
	// Push in reverse fold order so the owner's next popBottom is the
	// deepest fresh node's next branch — the DFS order's next leaf — while
	// thieves steal the shallowest from the top.
	for i := len(subs) - 1; i >= 0; i-- {
		w.dq.push(subs[i])
	}
	if len(subs) > 0 && len(e.deques) > 1 {
		e.notifyWork()
	}
	e.busy.Add(int64(time.Since(busyStart)))
	if failed && e.c.StopAtFirst {
		e.b.cancel()
		e.requestStop()
	}
	e.taskDone()
}

// position moves the chooser onto t's frozen path. A task whose parent is
// on the current path — every owner pop at one worker — flips one
// decision in place; any other (the root task, a steal, a resumed
// frontier entry) materializes its path.
func (w *wsWorker) position(t *wsTask) {
	n := t.node
	if n != nil && n.depth < len(w.chain) && (n.depth == 0 || w.chain[n.depth-1] == n.parent) {
		w.d.flip(n)
		w.chain = append(w.chain[:n.depth], n)
		return
	}
	w.d.resetTo(t.path())
	w.chain = w.chain[:0]
	for ; n != nil; n = n.parent {
		w.chain = append(w.chain, n)
	}
	slices.Reverse(w.chain)
}

// spawn builds the frontier entries for the sibling branches of every
// decision node the execution freshly opened (decisions past prefixLen),
// extending the chain with the opened nodes. The tasks come out in fold
// order: deepest node first, branches ascending — the DFS order after
// this leaf. Each opened node is one allocation (a wsBranch per branch),
// and its siblings share its parent pointer and cands slice.
func (w *wsWorker) spawn(prefixLen int) []*wsTask {
	fresh := w.d.decisions[prefixLen:]
	total := 0
	for i := range fresh {
		total += fresh[i].branchCount() - 1 - fresh[i].chosen
	}
	w.subs = slices.Grow(w.subs[:0], total)[:total]
	var parent *fnode
	if prefixLen > 0 {
		parent = w.chain[prefixLen-1]
	}
	// Fill from the back: shallower nodes' siblings come later in fold
	// order.
	pos := total
	for i := range fresh {
		nd := &fresh[i]
		bs := make([]wsBranch, nd.branchCount())
		for b := range bs {
			bs[b].node = fnode{parent: parent, depth: prefixLen + i, kind: nd.kind, n: nd.n, cands: nd.cands, branch: b}
		}
		pos -= len(bs) - 1 - nd.chosen
		for b, j := nd.chosen+1, pos; b < len(bs); b, j = b+1, j+1 {
			br := &bs[b]
			br.task.node, br.task.cell = &br.node, &br.cell
			w.subs[j] = &br.task
		}
		parent = &bs[nd.chosen].node
		w.chain = append(w.chain, parent)
	}
	return w.subs
}

// scratchFor returns the shard scratch for the chooser's root branch,
// invoking Config.NewScratch exactly once per branch across all workers.
// Multiple workers may explore one branch concurrently, so the scratch
// value must tolerate concurrent use (see Config.NewScratch).
func (w *wsWorker) scratchFor() any {
	e := w.e
	if e.c.NewScratch == nil {
		return nil
	}
	branch := 0
	if len(w.d.decisions) > 0 {
		branch = w.d.decisions[0].chosen
	}
	if branch == w.scratchBranch {
		return w.scratch
	}
	e.scratchMu.Lock()
	s, ok := e.scratches[branch]
	if !ok {
		if e.scratches == nil {
			e.scratches = map[int]any{}
		}
		s = e.c.NewScratch()
		e.scratches[branch] = s
	}
	e.scratchMu.Unlock()
	w.scratchBranch, w.scratch = branch, s
	return s
}

// acquire sweeps the other deques for a steal, parking between sweeps.
// Returns nil when the exploration is over (done or stopped).
func (e *wsEngine) acquire(w int) *wsTask {
	for {
		e.lot.mu.Lock()
		v := e.lot.version
		done := e.lot.done
		e.lot.mu.Unlock()
		if done || e.stop.Load() {
			return nil
		}
		if t := e.sweep(w); t != nil {
			return t
		}
		e.lot.mu.Lock()
		if e.lot.done || e.stop.Load() {
			e.lot.mu.Unlock()
			return nil
		}
		if e.lot.version == v {
			// No publish since the sweep started: safe to sleep.
			e.lot.cond.Wait()
		}
		e.lot.mu.Unlock()
	}
}

// sweep tries to steal once from every other worker's deque.
func (e *wsEngine) sweep(w int) *wsTask {
	n := len(e.deques)
	for i := 1; i < n; i++ {
		v := (w + i) % n
		if t := e.deques[v].steal(); t != nil {
			e.steals.Add(1)
			return t
		}
	}
	return nil
}

// notifyWork wakes parked workers after a publish.
func (e *wsEngine) notifyWork() {
	e.lot.mu.Lock()
	e.lot.version++
	e.lot.cond.Broadcast()
	e.lot.mu.Unlock()
}

// requestStop asks every worker to halt after its current execution.
func (e *wsEngine) requestStop() {
	e.stop.Store(true)
	e.lot.mu.Lock()
	e.lot.version++
	e.lot.cond.Broadcast()
	e.lot.mu.Unlock()
}

// taskDone retires one task; the last retirement ends the run.
func (e *wsEngine) taskDone() {
	if e.unfinished.Add(-1) == 0 {
		e.lot.mu.Lock()
		e.lot.done = true
		e.lot.cond.Broadcast()
		e.lot.mu.Unlock()
	}
}
