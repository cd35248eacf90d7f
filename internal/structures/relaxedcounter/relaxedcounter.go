// Package relaxedcounter is the paper's §3.3 example of applying the
// correctness model to code built exclusively from relaxed atomics: a
// counter with increment and read operations, no synchronization at all.
//
// Its specification is deliberately very weak — a read may return any
// value some justifying prefix (or concurrent increments) can produce —
// but it is not vacuous: once the program reaches a synchronization point
// (thread join in the tests), a read must be consistent with the number
// of increments ordered before it. That is exactly the guarantee §3.3
// describes.
package relaxedcounter

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// Memory-order site names. Both sites are relaxed by design; they exist
// so experiments can *strengthen* them, not weaken them.
const (
	SiteIncFAdd  = "inc_fadd"
	SiteReadLoad = "read_load"
)

// Site indices: positions in sites, and in an instance's interned
// orders.
const (
	siteIncFAdd = iota
	siteReadLoad
	numSites
)

// sites declares the memory-order sites (DefaultOrders documents the
// choices). Every table built from it shares it as its declaration,
// which lets New intern a table's orders without a lookup.
var sites = [numSites]memmodel.Site{
	siteIncFAdd:  {Name: SiteIncFAdd, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
	siteReadLoad: {Name: SiteReadLoad, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
}

// defaultOrders backs New when no table is given; it is never
// modified.
var defaultOrders = DefaultOrders()

// DefaultOrders returns the all-relaxed configuration.
func DefaultOrders() *memmodel.OrderTable { return memmodel.NewOrderTable(sites[:]...) }

// names are the location and method names of one instance.
type names struct{ cell, inc, read string }

var instNames = core.NewNames(func(inst string) names {
	return names{
		cell: inst + ".cell",
		inc:  inst + ".inc",
		read: inst + ".read",
	}
})

// Counter is the simulated relaxed counter.
type Counter struct {
	names *names
	// ord holds the interned orders, indexed by site constant.
	ord  []memmodel.MemOrder
	mon  *core.Monitor
	cell *checker.Atomic
}

// New builds a counter at zero.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Counter {
	if ord == nil {
		ord = defaultOrders
	}
	nm := instNames.Of(name)
	return &Counter{
		names: nm,
		ord:   ord.Intern(sites[:]),
		mon:   core.Of(t),
		cell:  t.NewAtomicInit(nm.cell, 0),
	}
}

// Inc increments the counter.
func (c *Counter) Inc(t *checker.Thread) {
	cc := c.mon.Begin(t, c.names.inc)
	c.cell.FetchAdd(t, c.ord[siteIncFAdd], 1)
	cc.OPDefine(t, true) // the RMW
	cc.EndVoid(t)
}

// Read returns the current count (possibly stale).
func (c *Counter) Read(t *checker.Thread) memmodel.Value {
	cc := c.mon.Begin(t, c.names.read)
	v := c.cell.Load(t, c.ord[siteReadLoad])
	cc.OPDefine(t, true) // the load
	cc.End(t, v)
	return v
}

// counterState is the sequential counter.
type counterState struct{ n memmodel.Value }

// Spec is the §3.3 weak specification: inc bumps the sequential counter;
// a read is justified if some justifying prefix yields exactly the value
// read, possibly helped by concurrent increments (a read racing k
// increments may observe any subset of them).
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return &counterState{} },
		Methods: map[string]*core.MethodSpec{
			name + ".inc": {
				SideEffect: func(st core.State, c *core.Call) {
					st.(*counterState).n++
				},
			},
			name + ".read": {
				SideEffect: func(st core.State, c *core.Call) {
					c.SRet = st.(*counterState).n
				},
				NeedsJustify: func(c *core.Call) bool { return true },
				// The prefix count is the floor; concurrent increments
				// may add up to their number on top of it.
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					base := st.(*counterState).n
					extra := memmodel.Value(0)
					for _, m := range conc {
						if !m.HasRet { // an inc call
							extra++
						}
					}
					return c.Ret >= base && c.Ret <= base+extra
				},
			},
		},
	}
}
