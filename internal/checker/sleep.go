package checker

import "math/bits"

// pendSig describes the visible operation a parked thread is about to
// perform — enough to decide dependency for the sleep-set reduction.
type pendSig struct {
	// class partitions operations for the dependency check.
	class sigClass
	// loc is the location id (memory ops) or mutex id (lock ops), -1
	// otherwise.
	loc int
	// write reports whether the op may write the location (store/RMW).
	write bool
	// sc reports whether the op participates in the seq_cst order.
	sc bool
}

type sigClass uint8

const (
	sigNone  sigClass = iota // join, thread start: op unknown or opaque
	sigMem                   // atomic load/store/RMW
	sigMutex                 // lock/trylock/unlock
	sigFence                 // stand-alone fence
	sigYield
)

// dependent reports whether the sleeping thread's pending operation a
// may not commute with the just-executed operation b: exploring both
// orders is then necessary, so the sleeper must be woken. wake is the
// only caller, always as dependent(sleeper, executed).
//
// The relation is deliberately conservative where starvation is at
// stake (dependence where unsure): a thread parked at its start point
// or at a join has an unknown next visible operation (sigNone) and is
// treated as dependent with everything, and a thread parked at a fence
// is woken by every other fence and every seq_cst memory operation.
// Those are the operations a fence can observe across threads: SC
// memory operations and SC fences move the seq_cst total order and the
// per-location visibility floors derived from it, and fence/fence
// pairs are kept dependent defensively. A fence-pending sleeper is
// therefore re-interleaved with them rather than starved — the old
// relation left fences independent of everything except an sc×sc
// pair, so such a sleeper could sleep through the entire subtree.
//
// Two directions are deliberately kept precise, because a fence's
// remaining effects (release-fence store tagging, acquire-fence load
// upgrades) are local to its own thread and reach other threads only
// through that thread's surrounding stores and loads, which mem×mem
// dependence already re-interleaves: a fence-pending sleeper is not
// woken by non-SC memory operations, and an executed fence does not
// wake a memory-pending sleeper. Widening either direction is sound
// but defeats the reduction on fence-heavy structures (the Chase-Lev
// unit test explores >70× more executions with fences fully dependent
// and >20× with the sleeper direction alone; the relation below costs
// ~2.5×).
func dependent(a, b pendSig) bool {
	if a.class == sigNone || b.class == sigNone {
		return true
	}
	// Two seq_cst operations never commute: their positions in the
	// total order S are observable (IRIW-style).
	if a.sc && b.sc {
		return true
	}
	switch {
	case a.class == sigMem && b.class == sigMem:
		return a.loc == b.loc && (a.write || b.write)
	case a.class == sigMutex && b.class == sigMutex:
		return a.loc == b.loc
	case a.class == sigFence:
		return b.class == sigFence || (b.class == sigMem && b.sc)
	}
	return false
}

// maxSleepThreads is the width of the sleep set's bitmask, and so the
// largest Config.MaxThreads Validate accepts.
const maxSleepThreads = 64

// sleepSet tracks threads that are asleep in the current subtree: their
// next operation was already explored in an earlier sibling, and running
// them now would reproduce an equivalent interleaving. A sleeping thread
// wakes when a dependent operation executes.
//
// Thread ids are dense and below maxSleepThreads, so the set is a
// bitmask over a tid-indexed signature array: every operation checks
// wake, and with no sleepers (the common case) that is one compare.
type sleepSet struct {
	mask uint64
	sigs [maxSleepThreads]pendSig
}

// clear empties the set in place.
func (s *sleepSet) clear() { s.mask = 0 }

func (s *sleepSet) sleep(tid int, sig pendSig) {
	s.mask |= 1 << uint(tid)
	s.sigs[tid] = sig
}

func (s *sleepSet) asleep(tid int) bool { return s.mask&(1<<uint(tid)) != 0 }

// wake removes every sleeper whose pending operation is dependent with
// the operation that just executed.
func (s *sleepSet) wake(executed pendSig) {
	for m := s.mask; m != 0; m &= m - 1 {
		tid := bits.TrailingZeros64(m)
		if dependent(s.sigs[tid], executed) {
			s.mask &^= 1 << uint(tid)
		}
	}
}
