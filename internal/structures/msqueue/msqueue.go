// Package msqueue is the Michael & Scott non-blocking queue [38] from the
// CDSChecker benchmark suite, ported to the simulated C/C++11 atomics.
//
// Nodes are allocated dynamically by enqueuers and reached by other
// threads only through the head/tail/next atomics, so the memory-order
// parameters are load-bearing exactly as in the C original: losing an
// acquire or a release breaks the publication of node memory, which the
// checker surfaces as an unpublished read (CDSChecker's uninitialized
// load) or as a specification violation (wrong or spuriously-empty
// dequeue).
//
// The two known bugs of §6.4.1 — found by AutoMO, one in enqueue and one
// in dequeue, both weaker-than-necessary orders — are reproduced by the
// KnownBugEnqueue and KnownBugDequeue order tables.
package msqueue

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Empty is the sentinel Deq returns for an empty queue.
const Empty = ^memmodel.Value(0)

// Memory-order site names.
const (
	SiteEnqLoadTail    = "enq_load_tail"
	SiteEnqLoadNext    = "enq_load_next"
	SiteEnqCASNext     = "enq_cas_next"
	SiteEnqCASTail     = "enq_cas_tail"
	SiteEnqHelpCASTail = "enq_help_cas_tail"
	SiteDeqLoadHead    = "deq_load_head"
	SiteDeqLoadTail    = "deq_load_tail"
	SiteDeqLoadNext    = "deq_load_next"
	SiteDeqCASHead     = "deq_cas_head"
	SiteDeqHelpCASTail = "deq_help_cas_tail"
)

// Site indices: positions in sites, and in an instance's interned
// orders.
const (
	siteEnqLoadTail = iota
	siteEnqLoadNext
	siteEnqCASNext
	siteEnqCASTail
	siteEnqHelpCASTail
	siteDeqLoadHead
	siteDeqLoadTail
	siteDeqLoadNext
	siteDeqCASHead
	siteDeqHelpCASTail
	numSites
)

// sites declares the memory-order sites (DefaultOrders documents the
// choices). Every table built from it shares it as its declaration,
// which lets New intern a table's orders without a lookup.
var sites = [numSites]memmodel.Site{
	siteEnqLoadTail:    {Name: SiteEnqLoadTail, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteEnqLoadNext:    {Name: SiteEnqLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteEnqCASNext:     {Name: SiteEnqCASNext, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteEnqCASTail:     {Name: SiteEnqCASTail, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteEnqHelpCASTail: {Name: SiteEnqHelpCASTail, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
	siteDeqLoadHead:    {Name: SiteDeqLoadHead, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteDeqLoadTail:    {Name: SiteDeqLoadTail, Class: memmodel.OpLoad, Default: memmodel.Relaxed},
	siteDeqLoadNext:    {Name: SiteDeqLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteDeqCASHead:     {Name: SiteDeqCASHead, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteDeqHelpCASTail: {Name: SiteDeqHelpCASTail, Class: memmodel.OpRMW, Default: memmodel.Relaxed},
}

// defaultOrders backs New when no table is given; it is never
// modified.
var defaultOrders = DefaultOrders()

// DefaultOrders returns the correct minimal memory orders: acquire on
// every pointer load that dereferences a node, release on every CAS that
// publishes one, and relaxed where the value is only a hint (the deq-side
// tail load, which is never dereferenced, and the lagging-tail helping
// CASes — the next-CAS is the real publication). Relaxed sites cannot be
// weakened further, so the injection set is the seven load-bearing sites.
func DefaultOrders() *memmodel.OrderTable { return memmodel.NewOrderTable(sites[:]...) }

// KnownBugEnqueue is the first §6.4.1 bug: the enqueue-side publication
// CAS is too weak, so a dequeuer can reach a node whose contents were
// never made visible to it.
func KnownBugEnqueue() *memmodel.OrderTable {
	t := DefaultOrders()
	t.Set(SiteEnqCASNext, memmodel.Relaxed)
	return t
}

// KnownBugDequeue is the second §6.4.1 bug: the dequeue-side head load is
// too weak, so a dequeuer can traverse into a node another dequeuer
// published without ever synchronizing with its contents.
func KnownBugDequeue() *memmodel.OrderTable {
	t := DefaultOrders()
	t.Set(SiteDeqLoadHead, memmodel.Relaxed)
	return t
}

type node struct {
	next *checker.Atomic
	data *checker.Plain
}

// names are the location and method names of one instance.
type names struct{ head, tail, next, data, enq, deq string }

var instNames = core.NewNames(func(inst string) names {
	return names{
		head: inst + ".head",
		tail: inst + ".tail",
		next: inst + ".next",
		data: inst + ".data",
		enq:  inst + ".enq",
		deq:  inst + ".deq",
	}
})

// Queue is the simulated Michael & Scott queue.
type Queue struct {
	names *names
	// ord holds the interned orders, indexed by site constant.
	ord []memmodel.MemOrder
	mon *core.Monitor

	head, tail *checker.Atomic
	nodes      []*node
}

// New builds an empty queue with a dummy node.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Queue {
	if ord == nil {
		ord = defaultOrders
	}
	nm := instNames.Of(name)
	q := &Queue{names: nm, ord: ord.Intern(sites[:]), mon: core.Of(t)}
	q.nodes = append(q.nodes, nil) // handle 0 = NULL
	dummy := q.newNode(t, 0)
	q.head = t.NewAtomicInit(nm.head, dummy)
	q.tail = t.NewAtomicInit(nm.tail, dummy)
	return q
}

func (q *Queue) newNode(t *checker.Thread, val memmodel.Value) memmodel.Value {
	// Reserve the handle before creating the locations: creating them
	// parks the thread, and a concurrent allocator must not observe a
	// stale length and reuse the handle.
	h := memmodel.Value(len(q.nodes))
	n := &node{}
	q.nodes = append(q.nodes, n)
	n.next = t.NewAtomicInit(q.names.next, 0)
	n.data = t.NewPlainInit(q.names.data, val)
	return h
}

func (q *Queue) node(h memmodel.Value) *node { return q.nodes[h] }

// Enq appends val.
func (q *Queue) Enq(t *checker.Thread, val memmodel.Value) {
	c := q.mon.Begin(t, q.names.enq, val)
	n := q.newNode(t, val)
	for {
		tl := q.tail.Load(t, q.ord[siteEnqLoadTail])
		next := q.node(tl).next.Load(t, q.ord[siteEnqLoadNext])
		if next == 0 {
			if _, ok := q.node(tl).next.CAS(t, 0, n, q.ord[siteEnqCASNext], memmodel.Relaxed); ok {
				c.OPDefine(t, true) // the successful publication CAS
				q.tail.CAS(t, tl, n, q.ord[siteEnqCASTail], memmodel.Relaxed)
				c.EndVoid(t)
				return
			}
		} else {
			// Help the lagging enqueuer swing the tail.
			q.tail.CAS(t, tl, next, q.ord[siteEnqHelpCASTail], memmodel.Relaxed)
		}
		t.Yield()
	}
}

// Deq removes and returns the oldest element, or Empty.
func (q *Queue) Deq(t *checker.Thread) memmodel.Value {
	c := q.mon.Begin(t, q.names.deq)
	for {
		h := q.head.Load(t, q.ord[siteDeqLoadHead])
		tl := q.tail.Load(t, q.ord[siteDeqLoadTail])
		next := q.node(h).next.Load(t, q.ord[siteDeqLoadNext])
		c.OPClearDefine(t, true) // the last iteration's next load
		if h == tl {
			if next == 0 {
				c.End(t, Empty)
				return Empty
			}
			// Tail is lagging: help.
			q.tail.CAS(t, tl, next, q.ord[siteDeqHelpCASTail], memmodel.Relaxed)
		} else if next != 0 {
			v := q.node(next).data.Load(t)
			if _, ok := q.head.CAS(t, h, next, q.ord[siteDeqCASHead], memmodel.Relaxed); ok {
				c.End(t, v)
				return v
			}
		}
		t.Yield()
	}
}

// Spec returns the CDSSpec specification: the same sequential FIFO with
// spurious-empty justification as the blocking queue — the paper notes in
// §6.2 that the M&S dequeue has the same justifying condition.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewIntList() },
		Methods: map[string]*core.MethodSpec{
			name + ".enq": {
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.IntList).PushBack(c.Arg(0))
				},
			},
			name + ".deq": {
				SideEffect: func(st core.State, c *core.Call) {
					l := st.(*seqds.IntList)
					if v, ok := l.Front(); ok {
						c.SRet = v
					} else {
						c.SRet = Empty
					}
					if c.SRet != Empty && c.Ret != Empty {
						l.PopFront()
					}
				},
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == Empty || c.Ret == c.SRet
				},
				NeedsJustify: func(c *core.Call) bool { return c.Ret == Empty },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return c.SRet == Empty
				},
			},
		},
	}
}
