// Package ticketlock is the ticket lock [42] ported from the AUTO MO
// benchmarks (paper §6.1): lock grabs a ticket with a *relaxed* fetch_add
// on curTicket and spins until nowServing equals it; unlock advances
// nowServing.
//
// As the paper highlights, the relaxed RMW on curTicket provides no
// synchronization — the lock synchronizes on the update/read of
// nowServing, so the ordering points are the successful nowServing load
// (lock) and the nowServing store (unlock).
package ticketlock

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Memory-order site names.
const (
	SiteTakeTicket   = "lock_fadd_ticket"
	SiteLoadServing  = "lock_load_serving"
	SiteStoreServing = "unlock_store_serving"
)

// Site indices: positions in sites, and in an instance's interned
// orders.
const (
	siteTakeTicket = iota
	siteLoadServing
	siteStoreServing
	numSites
)

// sites declares the memory-order sites (DefaultOrders documents the
// choices). Every table built from it shares it as its declaration,
// which lets New intern a table's orders without a lookup.
var sites = [numSites]memmodel.Site{
	siteTakeTicket:   {Name: SiteTakeTicket, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
	siteLoadServing:  {Name: SiteLoadServing, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteStoreServing: {Name: SiteStoreServing, Class: memmodel.OpStore, Default: memmodel.Release},
}

// defaultOrders backs New when no table is given; it is never
// modified.
var defaultOrders = DefaultOrders()

// DefaultOrders returns the correct orders. The ticket fetch_add is
// relaxed by design (terminal, not weakenable), leaving two injectable
// sites — matching the two injections Figure 8 reports for this
// benchmark.
func DefaultOrders() *memmodel.OrderTable { return memmodel.NewOrderTable(sites[:]...) }

// names are the location and method names of one instance.
type names struct{ curTicket, nowServing, lock, unlock string }

var instNames = core.NewNames(func(inst string) names {
	return names{
		curTicket:  inst + ".curTicket",
		nowServing: inst + ".nowServing",
		lock:       inst + ".lock",
		unlock:     inst + ".unlock",
	}
})

// Lock is the simulated ticket lock.
type Lock struct {
	names *names
	// ord holds the interned orders, indexed by site constant.
	ord []memmodel.MemOrder
	mon *core.Monitor

	curTicket  *checker.Atomic
	nowServing *checker.Atomic

	// ticket is the per-thread ticket held between Lock and Unlock
	// (index by thread id; a thread holds at most one ticket).
	ticket map[int]memmodel.Value
}

// New builds an unlocked ticket lock.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Lock {
	if ord == nil {
		ord = defaultOrders
	}
	nm := instNames.Of(name)
	return &Lock{
		names:      nm,
		ord:        ord.Intern(sites[:]),
		mon:        core.Of(t),
		curTicket:  t.NewAtomicInit(nm.curTicket, 0),
		nowServing: t.NewAtomicInit(nm.nowServing, 0),
		ticket:     map[int]memmodel.Value{},
	}
}

// Lock takes a ticket and spins until it is served.
func (l *Lock) Lock(t *checker.Thread) {
	c := l.mon.Begin(t, l.names.lock)
	ticket := l.curTicket.FetchAdd(t, l.ord[siteTakeTicket], 1)
	l.ticket[t.ID()] = ticket
	for {
		serving := l.nowServing.Load(t, l.ord[siteLoadServing])
		c.OPClearDefine(t, true) // the successful nowServing read
		if serving == ticket {
			c.EndVoid(t)
			return
		}
		t.Yield()
	}
}

// Unlock serves the next ticket.
func (l *Lock) Unlock(t *checker.Thread) {
	c := l.mon.Begin(t, l.names.unlock)
	l.nowServing.Store(t, l.ord[siteStoreServing], l.ticket[t.ID()]+1)
	c.OPDefine(t, true) // the nowServing store
	c.EndVoid(t)
}

// Spec maps the ticket lock to a sequential lock: lock requires the lock
// to be free, unlock requires the caller to hold it. Any execution in
// which the happens-before chain through nowServing is broken yields a
// history with two overlapping critical sections, failing the lock
// precondition.
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
