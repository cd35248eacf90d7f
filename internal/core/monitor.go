package core

import (
	"repro/internal/checker"
	"repro/internal/memmodel"
)

// Monitor records the method calls of one execution and checks them
// against a Spec when the execution completes. Install (typically from
// Config.OnRunStart) readies one per execution. A pooled System keeps
// its Monitor across the executions of one exploration worker, and
// Install resets it in place, so the monitor's record — Calls() and
// every *Call in it — is valid only within the execution that produced
// it (the lifetime rule of *memmodel.Action, see Call).
type Monitor struct {
	spec *Spec
	// calls is the execution's record in begin order. Its backing array
	// doubles as the pool of Call structs: slots past len hold calls of
	// earlier executions (or nil), which Begin recycles.
	calls []*Call
	// threads is the per-thread state, indexed by tid.
	threads []monThread
	// noScratch backs the check when no shard cache (and thus no shared
	// checkScratch) is available — direct Check() calls from unit tests.
	noScratch checkScratch
	// fpChain is ReduceFingerprint's hash chain over calls[:fpDone], all
	// ended (see ReduceFingerprint and touch).
	fpChain reducePair
	fpDone  int
}

// monThread is the monitor's state for one simulated thread.
type monThread struct {
	// depth counts the thread's open API calls: when an API method
	// calls another API method, only the outermost counts (paper §4.3,
	// "Nested API Method Call").
	depth int
	// muts counts spec-layer mutations, for the checker's spinloop
	// reduction (see ReduceThreadMuts in reduce.go).
	muts uint64
	// nested is the inert context Begin hands to nested calls.
	nested *CallCtx
}

// Install readies a Monitor for spec on the system so the instrumented
// data-structure code can find it. A monitor for the same spec left on a
// pooled System by its previous execution is reset and reused; otherwise
// a fresh one is created.
func Install(sys *checker.System, spec *Spec) *Monitor {
	if m, ok := sys.Aux.(*Monitor); ok && m.spec == spec {
		m.reset()
		return m
	}
	m := &Monitor{spec: spec}
	sys.Aux = m
	return m
}

// reset empties the record for the next execution, keeping every
// backing array (and the recycled Call structs) for reuse.
func (m *Monitor) reset() {
	m.calls = m.calls[:0]
	m.fpChain, m.fpDone = reducePair{}, 0
	for i := range m.threads {
		m.threads[i].depth = 0
		m.threads[i].muts = 0
	}
}

// thread returns tid's state, growing the table on first use.
func (m *Monitor) thread(tid int) *monThread {
	for len(m.threads) <= tid {
		m.threads = append(m.threads, monThread{})
	}
	return &m.threads[tid]
}

// Of returns the Monitor installed on the thread's system, or nil.
func Of(t *checker.Thread) *Monitor {
	m, _ := t.Sys().Aux.(*Monitor)
	return m
}

// FromSys returns the Monitor installed on sys, or nil.
func FromSys(sys *checker.System) *Monitor {
	m, _ := sys.Aux.(*Monitor)
	return m
}

// Calls returns the method calls recorded so far. The slice and its
// calls are valid only within the current execution.
func (m *Monitor) Calls() []*Call { return m.calls }

// Fingerprint returns the canonical 64-bit content hash of the calls
// recorded so far — the same FNV-1a hash the spec-check memoization keys
// on (see fingerprint in cache.go): call identities, arguments, return
// values, spec-visible aux values, and the closed ~r~ relation. Two
// executions with equal fingerprints are indistinguishable to the
// checking pipeline, which is what makes the hash a sound dedup key for
// fuzz-campaign failure triage. It is safe on a partially recorded
// execution (a built-in failure aborts mid-run before calls end); an
// empty record hashes to 0.
func (m *Monitor) Fingerprint() uint64 {
	if m == nil || len(m.calls) == 0 {
		return 0
	}
	r := buildOrderScratch(m.calls, &m.noScratch)
	_, h := fingerprint(&m.noScratch, m.calls, r)
	return h
}

// CallCtx is the instrumentation handle for one method call, carrying the
// ordering-point annotations of the specification language. For nested
// API calls the context is inert (the outermost call owns the record).
// Like its Call, it is valid only within the execution that opened it.
type CallCtx struct {
	m    *Monitor
	call *Call // nil when nested (inert)
	tid  int
}

// Begin opens an API method call (the method-begin annotation action).
// It must be paired with End/EndVoid on every return path. args are
// copied.
func (m *Monitor) Begin(t *checker.Thread, name string, args ...memmodel.Value) *CallCtx {
	if m == nil {
		return nil
	}
	tid := t.ID()
	th := m.thread(tid)
	th.muts++
	th.depth++
	if th.depth > 1 {
		// Nested: inert.
		if th.nested == nil {
			th.nested = &CallCtx{m: m, tid: tid}
		}
		return th.nested
	}
	n := len(m.calls)
	if n < cap(m.calls) {
		m.calls = m.calls[:n+1]
	} else {
		m.calls = append(m.calls, nil)
	}
	c := m.calls[n]
	if c == nil {
		c = &Call{}
		m.calls[n] = c
	}
	c.reset(m, n, tid, name, args)
	return &c.ctx
}

// mut accounts one spec-state mutation through x: it bumps the thread's
// mutation counter (ReduceThreadMuts) and, for a recording context whose
// call ReduceFingerprint has already folded, drops that cache (touch).
// Every CallCtx mutator calls it before changing anything.
func (x *CallCtx) mut() {
	x.m.mut(x.tid)
	if x.call != nil {
		x.m.touch(x.call)
	}
}

// end closes the context's call level on its thread.
func (x *CallCtx) end() {
	x.mut()
	x.m.threads[x.tid].depth--
}

// End closes the call with a return value (C_RET).
func (x *CallCtx) End(t *checker.Thread, ret memmodel.Value) {
	if x == nil {
		return
	}
	x.end()
	if x.call != nil {
		x.call.Ret = ret
		x.call.HasRet = true
		x.call.ended = true
	}
}

// EndVoid closes a void call.
func (x *CallCtx) EndVoid(t *checker.Thread) {
	if x == nil {
		return
	}
	x.end()
	if x.call != nil {
		x.call.ended = true
	}
}

// SetAux stores a named scratch value on the underlying call (no-op for
// nested calls). Structures use it to expose extra observed values to the
// specification.
func (x *CallCtx) SetAux(key string, v memmodel.Value) {
	if x == nil || x.call == nil {
		return
	}
	x.mut()
	x.call.SetAux(key, v)
}

// OPDefine marks the thread's immediately preceding atomic operation as an
// ordering point when cond holds (@OPDefine).
func (x *CallCtx) OPDefine(t *checker.Thread, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	if a := t.LastAction(); a != nil {
		x.mut()
		x.call.OPs = append(x.call.OPs, a)
	}
}

// OPClear removes all ordering points observed so far in this call when
// cond holds (@OPClear).
func (x *CallCtx) OPClear(t *checker.Thread, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	x.mut()
	x.call.OPs = x.call.OPs[:0]
	x.call.potentials = x.call.potentials[:0]
}

// OPClearDefine is OPClear followed by OPDefine (@OPClearDefine), the
// idiom for "the operation from the last loop iteration is the ordering
// point".
func (x *CallCtx) OPClearDefine(t *checker.Thread, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	x.OPClear(t, true)
	x.OPDefine(t, true)
}

// PotentialOP labels the preceding atomic operation as a potential
// ordering point (@PotentialOP(label)); a later OPCheck with the same
// label promotes it.
func (x *CallCtx) PotentialOP(t *checker.Thread, label string, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	if a := t.LastAction(); a != nil {
		x.mut()
		x.call.potentials = append(x.call.potentials, potentialOP{label: label, act: a})
	}
}

// OPCheck promotes all potential ordering points with the given label to
// real ordering points when cond holds (@OPCheck(label)).
func (x *CallCtx) OPCheck(t *checker.Thread, label string, cond bool) {
	if x == nil || x.call == nil || !cond {
		return
	}
	x.mut()
	kept := x.call.potentials[:0]
	for _, p := range x.call.potentials {
		if p.label == label {
			x.call.OPs = append(x.call.OPs, p.act)
		} else {
			kept = append(kept, p)
		}
	}
	x.call.potentials = kept
}
