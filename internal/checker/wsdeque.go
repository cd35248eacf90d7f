package checker

import "sync/atomic"

// wsDeque is the work-stealing scheduler's Chase-Lev deque — the real
// (native-atomics) sibling of the simulated benchmark in
// internal/structures/chaselev, after Chase & Lev and the C11 adaptation
// of Lê, Pop, Cohen and Zappa Nardelli:
//
//   - the owner pushes and pops at the bottom (LIFO, so a worker keeps
//     descending into the subtree it just opened — the DFS order),
//   - thieves CAS the top (FIFO, so a steal takes the shallowest — and
//     statistically largest — outstanding subtree),
//   - push allocates the circular array on first use and grows it when
//     full, publishing the new buffer
//     through an atomic pointer; a thief still holding the old buffer
//     reads the same elements, because growth copies [top, bottom) and
//     the old slots are never written again.
//
// Go's sync/atomic operations are sequentially consistent, strictly
// stronger than the acquire/release/seq_cst mix the C11 version needs, so
// the owner/thief race on the last element is arbitrated by the CAS on
// top exactly as in the paper's bug-fixed orders. The zero value is an
// empty deque.
type wsDeque struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[wsRing]
	// first is the initial ring generation, stored inline so that a
	// deque costs no allocation until it outgrows it.
	first      wsRing
	firstSlots [wsDequeInitialSize]atomic.Pointer[wsTask]
}

// wsRing is one circular-buffer generation; size is a power of two.
type wsRing struct {
	mask  int64
	slots []atomic.Pointer[wsTask]
}

const wsDequeInitialSize = 64

func newWSRing(size int64) *wsRing {
	return &wsRing{mask: size - 1, slots: make([]atomic.Pointer[wsTask], size)}
}

func (r *wsRing) get(i int64) *wsTask    { return r.slots[i&r.mask].Load() }
func (r *wsRing) put(i int64, t *wsTask) { r.slots[i&r.mask].Store(t) }

// push adds t at the bottom. Owner only — except before the worker
// goroutines start, when the engine seeds the deques single-threadedly.
func (d *wsDeque) push(t *wsTask) {
	b := d.bottom.Load()
	top := d.top.Load()
	r := d.ring.Load()
	if r == nil || b-top > r.mask {
		r = d.grow(r, top, b)
	}
	r.put(b, t)
	d.bottom.Store(b + 1)
}

// grow doubles the ring (or allocates the first one), copying the live
// window [top, b).
func (d *wsDeque) grow(old *wsRing, top, b int64) *wsRing {
	if old == nil {
		d.first = wsRing{mask: wsDequeInitialSize - 1, slots: d.firstSlots[:]}
		d.ring.Store(&d.first)
		return &d.first
	}
	r := newWSRing((old.mask + 1) * 2)
	for i := top; i < b; i++ {
		r.put(i, old.get(i))
	}
	d.ring.Store(r)
	return r
}

// popBottom removes and returns the bottom element (owner only), or nil
// when the deque is empty or a thief won the race for the last element.
func (d *wsDeque) popBottom() *wsTask {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	top := d.top.Load()
	if top > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	t := d.ring.Load().get(b)
	if top == b {
		// Last element: race the thieves on top.
		if !d.top.CompareAndSwap(top, top+1) {
			t = nil
		}
		d.bottom.Store(b + 1)
	}
	return t
}

// steal removes and returns the top element (any worker), or nil when the
// deque looks empty or the CAS race was lost. A nil result is not a
// proof of emptiness; callers sweep and retry.
func (d *wsDeque) steal() *wsTask {
	top := d.top.Load()
	b := d.bottom.Load()
	if top >= b {
		return nil
	}
	// Read the slot before the CAS: a successful CAS transfers ownership
	// of exactly this element, and the owner cannot overwrite the slot
	// until top has moved past it (the grow check keeps bottom-top within
	// one ring generation).
	t := d.ring.Load().get(top)
	if !d.top.CompareAndSwap(top, top+1) {
		return nil
	}
	return t
}
