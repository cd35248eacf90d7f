// Package blockingqueue is the paper's running example (Figure 2): a
// simple blocking queue whose enqueuers race with a CAS on the next field
// of the tail node and whose dequeuers race with a CAS on the head
// pointer, using release/acquire synchronization. Its CDSSpec
// specification is the paper's Figure 6: a sequential FIFO list where deq
// may spuriously return empty, justified by a justifying prefix in which
// the queue is also empty.
package blockingqueue

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Empty is the sentinel deq returns for an empty queue (the paper's -1).
const Empty = ^memmodel.Value(0)

// Memory-order site names.
const (
	SiteEnqLoadTail  = "enq_load_tail"
	SiteEnqCASNext   = "enq_cas_next"
	SiteEnqStoreTail = "enq_store_tail"
	SiteDeqLoadHead  = "deq_load_head"
	SiteDeqLoadNext  = "deq_load_next"
	SiteDeqCASHead   = "deq_cas_head"
)

// Site indices: positions in sites, and in an instance's interned
// orders.
const (
	siteEnqLoadTail = iota
	siteEnqCASNext
	siteEnqStoreTail
	siteDeqLoadHead
	siteDeqLoadNext
	siteDeqCASHead
	numSites
)

// sites declares the memory-order sites (DefaultOrders documents the
// choices). Every table built from it shares it as its declaration,
// which lets New intern a table's orders without a lookup.
var sites = [numSites]memmodel.Site{
	siteEnqLoadTail:  {Name: SiteEnqLoadTail, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteEnqCASNext:   {Name: SiteEnqCASNext, Class: memmodel.OpRMW, Default: memmodel.Release},
	siteEnqStoreTail: {Name: SiteEnqStoreTail, Class: memmodel.OpStore, Default: memmodel.Release},
	siteDeqLoadHead:  {Name: SiteDeqLoadHead, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteDeqLoadNext:  {Name: SiteDeqLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
	siteDeqCASHead:   {Name: SiteDeqCASHead, Class: memmodel.OpRMW, Default: memmodel.Release},
}

// defaultOrders backs New when no table is given; it is never
// modified.
var defaultOrders = DefaultOrders()

// DefaultOrders returns the memory orders of Figure 2.
func DefaultOrders() *memmodel.OrderTable { return memmodel.NewOrderTable(sites[:]...) }

// node is a queue node; nodes are identified by 1-based handles, 0 is
// NULL. The data field is a plain (race-detected) location, as in the
// C++ original.
type node struct {
	next *checker.Atomic
	data *checker.Plain
}

// names are the location and method names of one instance.
type names struct{ tail, head, next, data, enq, deq string }

var instNames = core.NewNames(func(inst string) names {
	return names{
		tail: inst + ".tail",
		head: inst + ".head",
		next: inst + ".next",
		data: inst + ".data",
		enq:  inst + ".enq",
		deq:  inst + ".deq",
	}
})

// Queue is the simulated blocking queue.
type Queue struct {
	names *names
	// ord holds the interned orders, indexed by site constant.
	ord []memmodel.MemOrder
	mon *core.Monitor

	tail, head *checker.Atomic
	nodes      []*node // index 0 unused (NULL)
}

// New builds a queue with a dummy head node, as the Figure 2 constructor
// does. The instance name prefixes its method names in the spec.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Queue {
	if ord == nil {
		ord = defaultOrders
	}
	nm := instNames.Of(name)
	q := &Queue{names: nm, ord: ord.Intern(sites[:]), mon: core.Of(t)}
	q.nodes = append(q.nodes, nil) // handle 0 = NULL
	dummy := q.newNode(t, 0)
	q.tail = t.NewAtomicInit(nm.tail, dummy)
	q.head = t.NewAtomicInit(nm.head, dummy)
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

// Enq appends val to the queue (Figure 2 lines 4–14, annotated as in
// Figure 6).
func (q *Queue) Enq(t *checker.Thread, val memmodel.Value) {
	c := q.mon.Begin(t, q.names.enq, val)
	n := q.newNode(t, val)
	for {
		tl := q.tail.Load(t, q.ord[siteEnqLoadTail])
		if _, ok := q.node(tl).next.CAS(t, 0, n, q.ord[siteEnqCASNext], memmodel.Relaxed); ok {
			c.OPDefine(t, true) // @OPDefine: true (the successful CAS)
			q.tail.Store(t, q.ord[siteEnqStoreTail], n)
			c.EndVoid(t)
			return
		}
		t.Yield() // spin: wait for the winning enqueuer to swing tail
	}
}

// Deq removes and returns the oldest element, or Empty (Figure 2 lines
// 15–23, annotated as in Figure 6).
func (q *Queue) Deq(t *checker.Thread) memmodel.Value {
	c := q.mon.Begin(t, q.names.deq)
	for {
		h := q.head.Load(t, q.ord[siteDeqLoadHead])
		n := q.node(h).next.Load(t, q.ord[siteDeqLoadNext])
		c.OPClearDefine(t, true) // @OPClearDefine: the last iteration's load
		if n == 0 {
			c.End(t, Empty)
			return Empty
		}
		if _, ok := q.head.CAS(t, h, n, q.ord[siteDeqCASHead], memmodel.Relaxed); ok {
			v := q.node(n).data.Load(t)
			c.End(t, v)
			return v
		}
		t.Yield() // lost the race for this node; retry
	}
}

// Spec returns the Figure 6 specification for an instance named name:
// an ordered list, enq pushes back, deq pops front or spuriously returns
// Empty — justified only when some justifying prefix leaves the list
// empty.
func Spec(name string) *core.Spec {
	return &core.Spec{
		Name:     name,
		NewState: func() core.State { return seqds.NewIntList() },
		Methods: map[string]*core.MethodSpec{
			name + ".enq": {
				// @SideEffect: STATE(q)->push_back(val);
				SideEffect: func(st core.State, c *core.Call) {
					st.(*seqds.IntList).PushBack(c.Arg(0))
				},
			},
			name + ".deq": {
				// @SideEffect: S_RET = empty ? -1 : front;
				//              if (S_RET != -1 && C_RET != -1) pop_front;
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
				// @PostCondition: C_RET == -1 ? true : C_RET == S_RET
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == Empty || c.Ret == c.SRet
				},
				// @JustifyingPostcondition: if (C_RET == -1)
				//     return S_RET == -1;
				NeedsJustify: func(c *core.Call) bool { return c.Ret == Empty },
				JustifyPost: func(st core.State, c *core.Call, conc []*core.Call) bool {
					return c.SRet == Empty
				},
			},
		},
	}
}
