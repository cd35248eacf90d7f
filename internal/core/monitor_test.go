package core

import (
	"fmt"
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
)

// runOnce executes prog under the checker a single time with a monitor
// installed and returns the recorded calls.
func runOnce(t *testing.T, spec *Spec, prog func(*checker.Thread)) []*Call {
	t.Helper()
	var calls []*Call
	cfg := checker.Config{
		MaxExecutions: 1,
		OnRunStart:    func(sys *checker.System) { Install(sys, spec) },
		OnExecution: func(sys *checker.System) []*checker.Failure {
			calls = FromSys(sys).Calls()
			return nil
		},
	}
	res := checker.Explore(cfg, prog)
	if res.Feasible == 0 {
		t.Fatalf("no feasible execution: %v", res)
	}
	return calls
}

func trivialSpec() *Spec {
	return &Spec{
		Name:     "t",
		NewState: func() State { return nil },
		Methods: map[string]*MethodSpec{
			"m": {}, "n": {},
		},
	}
}

// TestBeginEndRecordsCall: method boundaries capture thread, args, and
// return value.
func TestBeginEndRecordsCall(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		c := mon.Begin(root, "m", 3, 4)
		c.End(root, 7)
	})
	if len(calls) != 1 {
		t.Fatalf("expected 1 call, got %d", len(calls))
	}
	c := calls[0]
	if c.Name != "m" || c.Arg(0) != 3 || c.Arg(1) != 4 || !c.HasRet || c.Ret != 7 {
		t.Errorf("call mis-recorded: %s", c)
	}
	if c.Thread != 0 {
		t.Errorf("thread = %d, want 0", c.Thread)
	}
}

// TestNestedCallsUseOutermost: per §4.3, only the outermost API call is
// recorded; inner Begin/End pairs are inert.
func TestNestedCallsUseOutermost(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		outer := mon.Begin(root, "m")
		inner := mon.Begin(root, "n") // nested: must not be recorded
		inner.End(root, 1)
		outer.End(root, 2)
	})
	if len(calls) != 1 || calls[0].Name != "m" || calls[0].Ret != 2 {
		t.Fatalf("nested call handling wrong: %v", calls)
	}
}

// TestOPDefineCapturesPrecedingAction: the ordering point is the atomic
// operation immediately before the annotation.
func TestOPDefineCapturesPrecedingAction(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Release, 5)
		c.OPDefine(root, true)
		c.EndVoid(root)
	})
	c := calls[0]
	if len(c.OPs) != 1 {
		t.Fatalf("expected 1 OP, got %d", len(c.OPs))
	}
	if c.OPs[0].Kind != memmodel.KindAtomicStore || c.OPs[0].Value != 5 {
		t.Errorf("wrong OP action: %v", c.OPs[0])
	}
}

// TestOPDefineConditionFalse: a false condition records nothing.
func TestOPDefineConditionFalse(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Release, 5)
		c.OPDefine(root, false)
		c.EndVoid(root)
	})
	if len(calls[0].OPs) != 0 {
		t.Errorf("false condition recorded an OP")
	}
}

// TestOPClearDefineKeepsLastIteration: the loop idiom — only the final
// iteration's operation remains.
func TestOPClearDefineKeepsLastIteration(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		for i := 0; i < 3; i++ {
			x.Store(root, memmodel.Relaxed, memmodel.Value(i))
			c.OPClearDefine(root, true)
		}
		c.EndVoid(root)
	})
	c := calls[0]
	if len(c.OPs) != 1 || c.OPs[0].Value != 2 {
		t.Fatalf("OPClearDefine should keep only the last iteration: %v", c.OPs)
	}
}

// TestPotentialOPPromotion: a PotentialOP is inert until an OPCheck with
// the matching label promotes it (§4.2).
func TestPotentialOPPromotion(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Relaxed, 1)
		c.PotentialOP(root, "A", true)
		x.Store(root, memmodel.Relaxed, 2)
		c.PotentialOP(root, "B", true)
		c.OPCheck(root, "A", true)
		c.EndVoid(root)
	})
	c := calls[0]
	if len(c.OPs) != 1 || c.OPs[0].Value != 1 {
		t.Fatalf("OPCheck(A) should promote only the A potential: %v", c.OPs)
	}
	if len(c.potentials) != 1 || c.potentials[0].label != "B" {
		t.Fatalf("unpromoted potentials should remain: %v", c.potentials)
	}
}

// TestOPCheckConditionFalse: a false OPCheck promotes nothing.
func TestOPCheckConditionFalse(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Relaxed, 1)
		c.PotentialOP(root, "A", true)
		c.OPCheck(root, "A", false)
		c.EndVoid(root)
	})
	if len(calls[0].OPs) != 0 {
		t.Error("false OPCheck promoted a potential OP")
	}
}

// TestOPClearRemovesPotentials: OPClear drops pending potentials too.
func TestOPClearRemovesPotentials(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		c := mon.Begin(root, "m")
		x.Store(root, memmodel.Relaxed, 1)
		c.PotentialOP(root, "A", true)
		c.OPClear(root, true)
		c.OPCheck(root, "A", true) // nothing left to promote
		c.EndVoid(root)
	})
	if len(calls[0].OPs) != 0 {
		t.Error("OPClear did not remove potentials")
	}
}

// TestNilMonitorIsInert: instrumented structures run fine without an
// installed monitor (production mode — the paper's same-source property).
func TestNilMonitorIsInert(t *testing.T) {
	res := checker.Explore(checker.Config{MaxExecutions: 1}, func(root *checker.Thread) {
		mon := Of(root) // nil: nothing installed
		c := mon.Begin(root, "m", 1)
		c.OPDefine(root, true)
		c.SetAux("k", 2)
		c.End(root, 3)
	})
	if res.FailureCount != 0 {
		t.Fatalf("nil monitor should be inert: %v", res.FirstFailure())
	}
}

// TestUnendedCallCaught: a Begin without End is flagged by Check.
func TestUnendedCallCaught(t *testing.T) {
	spec := trivialSpec()
	var fails []*checker.Failure
	cfg := checker.Config{
		MaxExecutions: 1,
		OnRunStart:    func(sys *checker.System) { Install(sys, spec) },
		OnExecution: func(sys *checker.System) []*checker.Failure {
			fails = FromSys(sys).Check().Failures
			return nil
		},
	}
	checker.Explore(cfg, func(root *checker.Thread) {
		mon := Of(root)
		mon.Begin(root, "m") // never ended
	})
	if len(fails) == 0 {
		t.Error("unended call not reported")
	}
}

// TestSetAuxThroughCtx: aux values set via the context reach the call.
func TestSetAuxThroughCtx(t *testing.T) {
	calls := runOnce(t, trivialSpec(), func(root *checker.Thread) {
		mon := Of(root)
		c := mon.Begin(root, "m")
		c.SetAux("extra", 99)
		c.EndVoid(root)
	})
	if calls[0].GetAux("extra") != 99 {
		t.Errorf("aux = %d, want 99", calls[0].GetAux("extra"))
	}
}

// TestCrossThreadOPOrdering: ordering points in different threads with a
// release/acquire edge order the calls end to end through the pipeline.
func TestCrossThreadOPOrdering(t *testing.T) {
	type obs struct{ ordered, reverse bool }
	var seen obs
	spec := trivialSpec()
	cfg := checker.Config{
		OnRunStart: func(sys *checker.System) { Install(sys, spec) },
		OnExecution: func(sys *checker.System) []*checker.Failure {
			calls := FromSys(sys).Calls()
			if len(calls) == 2 {
				r := buildOrder(calls)
				if r.ordered(calls[0], calls[1]) {
					seen.ordered = true
				}
				if r.ordered(calls[1], calls[0]) {
					seen.reverse = true
				}
			}
			return nil
		},
	}
	res := checker.Explore(cfg, func(root *checker.Thread) {
		mon := Of(root)
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *checker.Thread) {
			c := mon.Begin(tt, "m")
			x.Store(tt, memmodel.Release, 1)
			c.OPDefine(tt, true)
			c.EndVoid(tt)
		})
		b := root.Spawn("b", func(tt *checker.Thread) {
			c := mon.Begin(tt, "n")
			v := x.Load(tt, memmodel.Acquire)
			c.OPDefine(tt, true)
			c.End(tt, v)
		})
		root.Join(a)
		root.Join(b)
	})
	if !res.Exhausted {
		t.Fatalf("not exhausted: %v", res)
	}
	if !seen.ordered {
		t.Error("never saw the store-before-load ordering (rf edge should order the calls)")
	}
	if seen.reverse {
		t.Error("saw a bogus reverse ordering (a load cannot happen-before the store it reads)")
	}
}

// monitorSnap is what one execution's monitor looked like at its end.
type monitorSnap struct {
	mon      *Monitor
	first    *Call
	calls    []string
	fp       uint64
	ra, rb   uint64
	muts     [2]uint64
	openRoot int
	// mid is ReduceFingerprint taken by the program mid-execution, with
	// calls open.
	mid [2]uint64
}

// reuseProg records a heavy, multi-threaded call pattern in execution 1
// — several aux keys, ordering points, potentials, and calls left open
// at two nesting levels — and a light, different one in execution 2.
// Each execution stores ReduceFingerprint mid-run, with calls open, in
// mid[exec-1].
func reuseProg(mid *[2][2]uint64) func(*checker.Thread) {
	return func(root *checker.Thread) {
		reuseBody(root, mid)
	}
}

func reuseBody(root *checker.Thread, mid *[2][2]uint64) {
	mon := Of(root)
	x := root.NewAtomicInit("x", 0)
	if root.Sys().ExecIndex() == 1 {
		c := mon.Begin(root, "m", 1, 2, 3)
		x.Store(root, memmodel.Release, 1)
		c.OPDefine(root, true)
		_ = x.Load(root, memmodel.Acquire)
		c.PotentialOP(root, "p", true)
		c.SetAux("b", 5)
		c.SetAux("a", 4)
		c.SetAux("c", 6)
		c.End(root, 9)
		a := root.Spawn("a", func(tt *checker.Thread) {
			c := mon.Begin(tt, "m", 4)
			_ = x.Load(tt, memmodel.Acquire)
			c.OPDefine(tt, true)
			c.SetAux("y", 2)
			c.End(tt, 1)
		})
		outer := mon.Begin(root, "n", 7)
		_ = x.Load(root, memmodel.Acquire)
		outer.OPDefine(root, true)
		outer.PotentialOP(root, "p", true)
		inner := mon.Begin(root, "m") // nested, and both left open
		inner.SetAux("z", 1)
		root.Join(a)
		mid[0][0], mid[0][1] = mon.ReduceFingerprint()
		return
	}
	c := mon.Begin(root, "n")
	x.Store(root, memmodel.Relaxed, 2)
	c.PotentialOP(root, "q", true)
	inner := mon.Begin(root, "m")
	mid[1][0], mid[1][1] = mon.ReduceFingerprint()
	inner.End(root, 3)
	c.SetAux("b", 8)
	c.EndVoid(root)
}

// runReuse runs the first two DFS executions of reuseProg on one worker
// and snapshots the monitor at the end of each.
func runReuse(t *testing.T, disablePooling bool) [2]monitorSnap {
	t.Helper()
	spec := trivialSpec()
	var snaps [2]monitorSnap
	var mid [2][2]uint64
	cfg := checker.Config{
		MaxExecutions:  2,
		DisablePooling: disablePooling,
		OnRunStart:     func(sys *checker.System) { Install(sys, spec) },
		OnExecution: func(sys *checker.System) []*checker.Failure {
			m := FromSys(sys)
			s := monitorSnap{mon: m, fp: m.Fingerprint()}
			s.ra, s.rb = m.ReduceFingerprint()
			for tid := range s.muts {
				s.muts[tid] = m.ReduceThreadMuts(tid)
			}
			if len(m.threads) > 0 {
				s.openRoot = m.threads[0].depth
			}
			for _, c := range m.Calls() {
				s.calls = append(s.calls, fmt.Sprintf("%s aux=%v ops=%d pot=%d ended=%v",
					c, c.aux, len(c.OPs), len(c.potentials), c.ended))
			}
			if len(m.Calls()) > 0 {
				s.first = m.Calls()[0]
			}
			snaps[sys.ExecIndex()-1] = s
			return nil
		},
	}
	if res := checker.Explore(cfg, reuseProg(&mid)); res.Executions != 2 || res.Feasible != 2 {
		t.Fatalf("want two feasible executions: %v", res)
	}
	snaps[0].mid, snaps[1].mid = mid[0], mid[1]
	return snaps
}

// TestMonitorReuseAcrossExecutions: a pooled System keeps its Monitor,
// and Install resets it so the second execution sees nothing left over
// from the first — its record, fingerprints and mutation counters equal
// those of a freshly built Monitor (the unpooled run) for the same
// record.
func TestMonitorReuseAcrossExecutions(t *testing.T) {
	pooled := runReuse(t, false)
	fresh := runReuse(t, true)
	if pooled[0].mon != pooled[1].mon || pooled[0].first != pooled[1].first {
		t.Fatal("pooled run did not reuse the monitor and its calls")
	}
	if fresh[0].mon == fresh[1].mon {
		t.Fatal("unpooled run reused a monitor")
	}
	if pooled[0].openRoot != 2 {
		t.Fatalf("execution 1 should end with two open calls on the root, got depth %d", pooled[0].openRoot)
	}
	want := []string{"n() [T0 #0] aux=[{b 8}] ops=0 pot=1 ended=true"}
	if fmt.Sprint(pooled[1].calls) != fmt.Sprint(want) {
		t.Errorf("second execution's record = %q, want %q", pooled[1].calls, want)
	}
	for i := range pooled {
		p, f := pooled[i], fresh[i]
		if fmt.Sprint(p.calls) != fmt.Sprint(f.calls) {
			t.Errorf("execution %d: record %q, fresh monitor %q", i+1, p.calls, f.calls)
		}
		if p.fp != f.fp {
			t.Errorf("execution %d: Fingerprint %x, fresh monitor %x", i+1, p.fp, f.fp)
		}
		if p.mid != f.mid {
			t.Errorf("execution %d: mid-run ReduceFingerprint %x, fresh monitor %x", i+1, p.mid, f.mid)
		}
		if p.ra != f.ra || p.rb != f.rb {
			t.Errorf("execution %d: ReduceFingerprint (%x,%x), fresh monitor (%x,%x)", i+1, p.ra, p.rb, f.ra, f.rb)
		}
		if p.muts != f.muts || p.openRoot != f.openRoot {
			t.Errorf("execution %d: muts %v depth %d, fresh monitor muts %v depth %d",
				i+1, p.muts, p.openRoot, f.muts, f.openRoot)
		}
	}
}

// TestReduceFingerprintCacheMatchesRecompute: ReduceFingerprint caches
// its hash chain over the longest prefix of ended calls. At every
// annotation of every execution the cached result must equal a hash
// from scratch (a monitor with the same record and an empty cache),
// including after CallCtx mutations of a call that already ended and
// was folded into the cache.
func TestReduceFingerprintCacheMatchesRecompute(t *testing.T) {
	var checks, lateFolded int
	var mismatch []string
	check := func(tt *checker.Thread, where string) {
		checks++
		m := Of(tt)
		ca, cb := m.ReduceFingerprint()
		fa, fb := (&Monitor{calls: m.calls, threads: m.threads}).ReduceFingerprint()
		if (ca != fa || cb != fb) && len(mismatch) < 5 {
			mismatch = append(mismatch, fmt.Sprintf("execution %d, T%d %s: cached (%x,%x), recomputed (%x,%x)",
				tt.Sys().ExecIndex(), tt.ID(), where, ca, cb, fa, fb))
		}
	}
	body := func(tt *checker.Thread, x *checker.Atomic, v memmodel.Value) {
		m := Of(tt)
		c := m.Begin(tt, "m", v)
		check(tt, "begin")
		x.Store(tt, memmodel.Release, v)
		c.OPDefine(tt, true)
		check(tt, "OPDefine")
		c.End(tt, v)
		check(tt, "End")
		_ = x.Load(tt, memmodel.Acquire)
		if c.call.ID < m.fpDone {
			lateFolded++
		}
		// Mutations after End, of a call the cache may hold.
		c.SetAux("late", v)
		check(tt, "SetAux after End")
		c.PotentialOP(tt, "p", true)
		check(tt, "PotentialOP after End")
		c.OPCheck(tt, "p", true)
		check(tt, "OPCheck after End")
		c.OPClear(tt, true)
		check(tt, "OPClear after End")
		c.End(tt, v+10)
		check(tt, "second End")
	}
	prog := func(root *checker.Thread) {
		x := root.NewAtomicInit("x", 0)
		a := root.Spawn("a", func(tt *checker.Thread) { body(tt, x, 1) })
		b := root.Spawn("b", func(tt *checker.Thread) { body(tt, x, 2) })
		root.Join(a)
		root.Join(b)
		check(root, "after joins")
	}
	spec := trivialSpec()
	res := checker.Explore(checker.Config{OnRunStart: func(sys *checker.System) { Install(sys, spec) }}, prog)
	if !res.Exhausted || res.Feasible == 0 {
		t.Fatalf("exploration did not complete: %v", res)
	}
	for _, m := range mismatch {
		t.Error(m)
	}
	if lateFolded == 0 {
		t.Errorf("no post-End mutation hit a call inside the cached prefix (%d checks); the test does not exercise invalidation", checks)
	}
}
