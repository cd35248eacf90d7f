package checker

import (
	"repro/internal/memmodel"
)

// execPool recycles the per-execution state of one exploration worker —
// the System shell (with the Aux value its owner left on it, the spec
// monitor), thread structs and their goroutines, locations, actions, and
// clock snapshots — so replaying millions of executions allocates
// (amortized) nothing per execution instead of rebuilding everything
// from scratch.
//
// A pool is single-threaded: it belongs to exactly one worker goroutine
// (one work-stealing worker, or one fast-mode block), which defers close
// to stop the thread goroutines. Pooling is
// invisible to results: a pooled run is bit-identical to an unpooled one
// (pinned by tests), because every recycled object is fully reset or
// fully overwritten before reuse.
//
// The load-bearing invariant is *lifetime*: pointers into pooled state —
// *memmodel.Action, Action.Clock, storeRec.sync, the *Atomic/*Plain
// handles (embedded in their locations), and the spec layer's
// *core.Call — are valid only within the execution that produced them.
// Everything retained across executions already obeys this (Failure
// renders its trace to a string at creation time; Result holds no
// actions), and the spec layer above keeps only derived data
// (fingerprints, counters) in its cross-execution caches.
// Config.DisablePooling opts out for any client that must retain actions.
type execPool struct {
	sys *System

	// threads and locs are supersets of any single execution's threads
	// and locations; newThread/newLocation take the next entry and reset
	// it instead of allocating. The per-execution System slices alias
	// prefixes of these.
	threads []*Thread
	locs    []*location

	// acts and clks are arenas of recycled actions and clock snapshots;
	// actIdx/clkIdx are the next free slots, rewound on reset.
	acts   []*memmodel.Action
	actIdx int
	clks   []*memmodel.ClockVector
	clkIdx int
}

// newExecPool returns an empty pool for one worker, or nil when pooling
// is disabled — every use site treats a nil pool as "allocate fresh".
func newExecPool(c *Config) *execPool {
	if c.DisablePooling {
		return nil
	}
	return &execPool{}
}

// take returns a System reset for the next execution. The first call
// builds the shell; later calls rewind it.
func (p *execPool) take(cfg *Config, ch chooser, execIndex int, scratch any) *System {
	if p.sys == nil {
		p.sys = &System{schedDone: make(chan struct{})}
	}
	s := p.sys
	if cfg.FastMode {
		// Return the previous run's live store-buffer actions and clocks
		// to the free lists before the location slices are truncated —
		// this (plus eviction during the run) is what keeps fast-mode
		// allocation amortized-zero per run. Must happen before s.locs
		// and s.threads are rewound below.
		s.sweepFast()
	}
	// Full overwrite of the shell except the pooled containers.
	s.cfg = cfg
	s.chooser = ch
	s.threads = s.threads[:0]
	s.locs = s.locs[:0]
	s.actions = s.actions[:0]
	s.scCount = 0
	s.storeEpoch = 0
	s.stepCount = 0
	s.execIndex = execIndex
	s.aborted = false
	s.draining = false
	s.pruned = false
	s.pruneReason = pruneNone
	s.failure = nil
	s.mutexCount = 0
	s.mutexes = s.mutexes[:0]
	s.symClasses = s.symClasses[:0]
	s.fpSC = fpPair{}
	s.fpLocSum, s.fpMutexSum = fpKey{}, fpKey{}
	s.fpDirtyLocs = s.fpDirtyLocs[:0]
	s.fpDirtyMutexes = s.fpDirtyMutexes[:0]
	s.redSpinBounds = 0
	s.redSymPrunes = 0
	s.actionCount = 0
	s.lastActID = 0
	s.evictions = 0
	s.specReport = SpecReport{}
	s.sleep.clear()
	// Aux is kept: its owner resets it from OnRunStart (core.Install
	// reuses the previous execution's spec monitor).
	s.Scratch = scratch
	s.pool = p
	p.actIdx = 0
	p.clkIdx = 0
	return s
}

// getThread returns the id-th thread struct, recycled and reset to run
// fn with a clock copied from src. Each slot keeps one goroutine for the
// life of the pool (threadLoop); reap has returned it to its loop head,
// so the channels are idle and the next resume is this execution's
// start grant. A goroutine is started only for a slot that has none.
func (p *execPool) getThread(s *System, id int, name string, fn func(*Thread), src *memmodel.ClockVector) *Thread {
	var t *Thread
	if id < len(p.threads) {
		t = p.threads[id]
		t.reset(s, name, fn, src)
	} else {
		t = newThreadStruct(s, id, name, fn, cloneOrNew(src))
		p.threads = append(p.threads, t)
	}
	if !t.looping {
		t.looping = true
		go t.threadLoop()
	}
	return t
}

// close stops every slot's goroutine and returns once each has left its
// loop. The pool is unusable afterwards. Every pool owner defers it; a
// nil pool (pooling disabled) has nothing to stop.
func (p *execPool) close() {
	if p == nil {
		return
	}
	for _, t := range p.threads {
		if t.looping {
			t.looping = false
			close(t.resume)
			<-t.parked
		}
	}
}

// getLocation returns the id-th location struct, recycled and reset.
func (p *execPool) getLocation(id int) *location {
	if id < len(p.locs) {
		l := p.locs[id]
		l.reset()
		return l
	}
	l := &location{maxLoadRF: -1}
	p.locs = append(p.locs, l)
	return l
}

// getAction returns a recycled Action; the caller overwrites every field.
func (p *execPool) getAction() *memmodel.Action {
	if p.actIdx < len(p.acts) {
		a := p.acts[p.actIdx]
		p.actIdx++
		return a
	}
	a := &memmodel.Action{}
	p.acts = append(p.acts, a)
	p.actIdx++
	return a
}

// getClock returns a recycled clock holding a copy of src (empty when
// src is nil).
func (p *execPool) getClock(src *memmodel.ClockVector) *memmodel.ClockVector {
	var cv *memmodel.ClockVector
	if p.clkIdx < len(p.clks) {
		cv = p.clks[p.clkIdx]
	} else {
		cv = memmodel.NewClockVector()
		p.clks = append(p.clks, cv)
	}
	p.clkIdx++
	if src == nil {
		cv.Reset()
	} else {
		cv.CopyFrom(src)
	}
	return cv
}

// cloneOrNew deep-copies src, or returns a fresh clock when src is nil.
func cloneOrNew(src *memmodel.ClockVector) *memmodel.ClockVector {
	if src == nil {
		return memmodel.NewClockVector()
	}
	return src.Clone()
}
