// Package mcslock is the MCS queue lock: contenders enqueue a fresh
// qnode with an atomic exchange on the tail, link themselves behind their
// predecessor, and spin on their own node's locked flag; unlock hands the
// lock to the successor (or CASes the tail back to empty).
//
// Qnodes are allocated per Lock call, as in the classic algorithm, so
// the exchange's acquire half and the handoff's release half are what
// make a node's memory visible across threads.
package mcslock

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Memory-order site names.
const (
	SiteLockXchgTail    = "lock_xchg_tail"
	SiteLockStoreNext   = "lock_store_prednext"
	SiteLockSpinLocked  = "lock_spin_locked"
	SiteUnlockLoadNext  = "unlock_load_next"
	SiteUnlockCASTail   = "unlock_cas_tail"
	SiteUnlockStoreLock = "unlock_store_locked"
)

// Site indices: positions in sites, and in an instance's interned
// orders.
const (
	siteLockXchgTail = iota
	siteLockStoreNext
	siteLockSpinLocked
	siteUnlockLoadNext
	siteUnlockCASTail
	siteUnlockStoreLock
	numSites
)

// sites declares the memory-order sites (DefaultOrders documents the
// choices). Every table built from it shares it as its declaration,
// which lets New intern a table's orders without a lookup.
var sites = [numSites]memmodel.Site{
	siteLockXchgTail:    {Name: SiteLockXchgTail, Class: memmodel.OpRMW, Default: memmodel.AcqRel},
	siteLockStoreNext:   {Name: SiteLockStoreNext, Class: memmodel.OpStore, Default: memmodel.Release},
	siteLockSpinLocked:  {Name: SiteLockSpinLocked, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteUnlockLoadNext:  {Name: SiteUnlockLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteUnlockCASTail:   {Name: SiteUnlockCASTail, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteUnlockStoreLock: {Name: SiteUnlockStoreLock, Class: memmodel.OpStore, Default: memmodel.Release},
}

// defaultOrders backs New when no table is given; it is never
// modified.
var defaultOrders = DefaultOrders()

// DefaultOrders returns the correct orders.
func DefaultOrders() *memmodel.OrderTable { return memmodel.NewOrderTable(sites[:]...) }

type qnode struct {
	next   *checker.Atomic
	locked *checker.Atomic
}

// names are the location and method names of one instance.
type names struct{ tail, next, locked, lock, unlock string }

var instNames = core.NewNames(func(inst string) names {
	return names{
		tail:   inst + ".tail",
		next:   inst + ".next",
		locked: inst + ".locked",
		lock:   inst + ".lock",
		unlock: inst + ".unlock",
	}
})

// Lock is the simulated MCS lock.
type Lock struct {
	names *names
	// ord holds the interned orders, indexed by site constant.
	ord []memmodel.MemOrder
	mon *core.Monitor

	tail    *checker.Atomic
	nodes   []*qnode
	holding map[int]memmodel.Value // thread id -> node handle held
}

// New builds a free MCS lock.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Lock {
	if ord == nil {
		ord = defaultOrders
	}
	nm := instNames.Of(name)
	l := &Lock{
		names:   nm,
		ord:     ord.Intern(sites[:]),
		mon:     core.Of(t),
		tail:    t.NewAtomicInit(nm.tail, 0),
		holding: map[int]memmodel.Value{},
	}
	l.nodes = append(l.nodes, nil) // handle 0 = none
	return l
}

func (l *Lock) newNode(t *checker.Thread) memmodel.Value {
	// Reserve the handle before creating the locations: creating them
	// parks the thread, and a concurrent allocator must not observe a
	// stale length and reuse the handle.
	h := memmodel.Value(len(l.nodes))
	n := &qnode{}
	l.nodes = append(l.nodes, n)
	n.next = t.NewAtomicInit(l.names.next, 0)
	n.locked = t.NewAtomicInit(l.names.locked, 1)
	return h
}

// Lock acquires the lock.
func (l *Lock) Lock(t *checker.Thread) {
	c := l.mon.Begin(t, l.names.lock)
	me := l.newNode(t)
	l.holding[t.ID()] = me
	pred := l.tail.Exchange(t, l.ord[siteLockXchgTail], me)
	if pred == 0 {
		c.OPDefine(t, true) // uncontended: the exchange acquires
		c.EndVoid(t)
		return
	}
	l.nodes[pred].next.Store(t, l.ord[siteLockStoreNext], me)
	for {
		if l.nodes[me].locked.Load(t, l.ord[siteLockSpinLocked]) == 0 {
			c.OPDefine(t, true) // the handoff read
			c.EndVoid(t)
			return
		}
		t.Yield()
	}
}

// Unlock releases the lock.
func (l *Lock) Unlock(t *checker.Thread) {
	c := l.mon.Begin(t, l.names.unlock)
	me := l.holding[t.ID()]
	next := l.nodes[me].next.Load(t, l.ord[siteUnlockLoadNext])
	if next == 0 {
		if _, ok := l.tail.CAS(t, me, 0, l.ord[siteUnlockCASTail], memmodel.Relaxed); ok {
			c.OPDefine(t, true) // released to empty: the tail CAS
			c.EndVoid(t)
			return
		}
		// A successor is linking itself: wait for the link.
		for {
			next = l.nodes[me].next.Load(t, l.ord[siteUnlockLoadNext])
			if next != 0 {
				break
			}
			t.Yield()
		}
	}
	l.nodes[next].locked.Store(t, l.ord[siteUnlockStoreLock], 0)
	c.OPDefine(t, true) // the handoff store
	c.EndVoid(t)
}

// Spec maps the MCS lock to a sequential lock, as for the ticket lock.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewLockState() },
		Methods: map[string]*core.MethodSpec{
			name + ".lock": {
				Pre: func(st core.State, c *core.Call) bool {
					return !st.(*seqds.LockState).Locked()
				},
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.LockState).Acquire(memmodel.Value(c.Thread))
				},
			},
			name + ".unlock": {
				Pre: func(st core.State, c *core.Call) bool {
					l := st.(*seqds.LockState)
					return l.Locked() && l.Owner() == memmodel.Value(c.Thread)
				},
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.LockState).Release(memmodel.Value(c.Thread))
				},
			},
		},
	}
}
