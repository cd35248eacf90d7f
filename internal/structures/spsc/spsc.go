// Package spsc is the single-producer single-consumer linked queue from
// the CDSChecker benchmark suite: the producer owns the tail, the
// consumer owns the head, and the only shared state is each node's next
// pointer. Deq blocks (spins) until an element is available.
//
// Because there is exactly one producer and one consumer, the queue's
// entire synchronization is the release store / acquire load on next —
// two sites, matching the two injections Figure 8 reports.
package spsc

import (
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/seqds"
)

// Memory-order site names.
const (
	SiteEnqStoreNext = "enq_store_next"
	SiteDeqLoadNext  = "deq_load_next"
)

// Site indices: positions in sites, and in an instance's interned
// orders.
const (
	siteEnqStoreNext = iota
	siteDeqLoadNext
	numSites
)

// sites declares the memory-order sites (DefaultOrders documents the
// choices). Every table built from it shares it as its declaration,
// which lets New intern a table's orders without a lookup.
var sites = [numSites]memmodel.Site{
	siteEnqStoreNext: {Name: SiteEnqStoreNext, Class: memmodel.OpStore, Default: memmodel.Release},
	siteDeqLoadNext:  {Name: SiteDeqLoadNext, Class: memmodel.OpLoad, Default: memmodel.Acquire},
}

// defaultOrders backs New when no table is given; it is never
// modified.
var defaultOrders = DefaultOrders()

// DefaultOrders returns the correct orders.
func DefaultOrders() *memmodel.OrderTable { return memmodel.NewOrderTable(sites[:]...) }

type node struct {
	next *checker.Atomic
	data *checker.Plain
}

// names are the location and method names of one instance.
type names struct{ next, data, enq, deq string }

var instNames = core.NewNames(func(inst string) names {
	return names{
		next: inst + ".next",
		data: inst + ".data",
		enq:  inst + ".enq",
		deq:  inst + ".deq",
	}
})

// Queue is the simulated SPSC queue.
type Queue struct {
	names *names
	// ord holds the interned orders, indexed by site constant.
	ord []memmodel.MemOrder
	mon *core.Monitor

	nodes []*node
	// head and tail are thread-private (consumer resp. producer), as in
	// the C original where they are plain fields.
	head, tail memmodel.Value
}

// New builds an empty queue with a dummy node.
func New(t *checker.Thread, name string, ord *memmodel.OrderTable) *Queue {
	if ord == nil {
		ord = defaultOrders
	}
	nm := instNames.Of(name)
	q := &Queue{names: nm, ord: ord.Intern(sites[:]), mon: core.Of(t)}
	q.nodes = append(q.nodes, nil)
	dummy := q.newNode(t, 0)
	q.head, q.tail = dummy, dummy
	return q
}

func (q *Queue) newNode(t *checker.Thread, val memmodel.Value) memmodel.Value {
	// Reserve the handle before creating the locations (creating them
	// parks the thread; see the same pattern in msqueue).
	h := memmodel.Value(len(q.nodes))
	n := &node{}
	q.nodes = append(q.nodes, n)
	n.next = t.NewAtomicInit(q.names.next, 0)
	n.data = t.NewPlainInit(q.names.data, val)
	return h
}

// Enq appends val (producer only).
func (q *Queue) Enq(t *checker.Thread, val memmodel.Value) {
	c := q.mon.Begin(t, q.names.enq, val)
	n := q.newNode(t, val)
	q.nodes[q.tail].next.Store(t, q.ord[siteEnqStoreNext], n)
	c.OPDefine(t, true) // the publishing next store
	q.tail = n
	c.EndVoid(t)
}

// Deq blocks until an element is available and returns it (consumer
// only).
func (q *Queue) Deq(t *checker.Thread) memmodel.Value {
	c := q.mon.Begin(t, q.names.deq)
	for {
		n := q.nodes[q.head].next.Load(t, q.ord[siteDeqLoadNext])
		c.OPClearDefine(t, true) // the successful next load
		if n != 0 {
			v := q.nodes[n].data.Load(t)
			q.head = n
			c.End(t, v)
			return v
		}
		t.Yield()
	}
}

// Spec is a deterministic sequential FIFO: deq blocks rather than
// returning empty, so there is no non-determinism to justify. The
// single-producer single-consumer usage contract is expressed as
// admissibility rules: two enqs (or two deqs) must always be ordered —
// calls from one thread always are.
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
				Pre: func(st core.State, c *core.Call) bool {
					return !st.(*seqds.IntList).Empty()
				},
				SideEffect: func(st core.State, c *core.Call) {
					v, _ := st.(*seqds.IntList).PopFront()
					c.SRet = v
				},
				Post: func(st core.State, c *core.Call) bool {
					return c.Ret == c.SRet
				},
			},
		},
		Admissibility: []core.AdmitRule{
			{M1: name + ".enq", M2: name + ".enq",
				MustOrder: func(a, b *core.Call) bool { return true }},
			{M1: name + ".deq", M2: name + ".deq",
				MustOrder: func(a, b *core.Call) bool { return true }},
		},
	}
}
