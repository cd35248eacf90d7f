package checker

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/memmodel"
)

// failingProgram fails an assertion on the interleavings where b reads
// a's store, while a third thread is still parked mid-run, so the
// execution ends with live threads that reap must unwind.
func failingProgram(root *Thread) {
	x := root.NewAtomicInit("x", 0)
	a := root.Spawn("a", func(tt *Thread) { x.Store(tt, memmodel.Relaxed, 1) })
	b := root.Spawn("b", func(tt *Thread) {
		tt.Assert(x.Load(tt, memmodel.Relaxed) == 0, "b saw a's store")
	})
	c := root.Spawn("c", func(tt *Thread) {
		x.Store(tt, memmodel.Relaxed, 2)
		x.Store(tt, memmodel.Relaxed, 3)
	})
	root.Join(a)
	root.Join(b)
	root.Join(c)
}

// panicProgram panics in user code on some interleavings, with other
// threads still parked.
func panicProgram(root *Thread) {
	x := root.NewAtomicInit("x", 0)
	a := root.Spawn("a", func(tt *Thread) { x.Store(tt, memmodel.Relaxed, 1) })
	b := root.Spawn("b", func(tt *Thread) {
		if x.Load(tt, memmodel.Relaxed) == 1 {
			panic("boom")
		}
	})
	root.Join(a)
	root.Join(b)
}

// goexitProgram ends a thread with runtime.Goexit, which takes its
// goroutine down with it: a pooled slot must start a new one next time.
func goexitProgram(root *Thread) {
	x := root.NewAtomicInit("x", 0)
	a := root.Spawn("a", func(tt *Thread) {
		x.Store(tt, memmodel.Relaxed, 1)
		runtime.Goexit()
	})
	_ = x.Load(root, memmodel.Relaxed)
	root.Join(a)
}

// settledGoroutines waits, without sleeping, for goroutines that have
// finished their work but not yet been torn down by the runtime, and
// returns the count once it reaches base or the deadline passes.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestExploreLeavesNoGoroutines: pooled thread slots keep their
// goroutines alive across executions, so every pool owner must stop
// them before Explore returns — on every engine and on every early exit.
func TestExploreLeavesNoGoroutines(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	for _, tc := range []struct {
		name string
		cfg  Config
		prog func(*Thread)
		// wantFail reports whether the run must record a failure.
		wantFail bool
	}{
		{name: "sequential", prog: manyExecProgram},
		{name: "worksteal-1", cfg: Config{Interrupt: make(chan struct{})}, prog: manyExecProgram},
		{name: "worksteal-4", cfg: Config{Parallelism: 4}, prog: manyExecProgram},
		{name: "fast", cfg: Config{FastMode: true, MaxExecutions: 50}, prog: manyExecProgram},
		{name: "fast-4", cfg: Config{FastMode: true, MaxExecutions: 50, Parallelism: 4}, prog: manyExecProgram},
		{name: "stop-at-first", cfg: Config{StopAtFirst: true}, prog: failingProgram, wantFail: true},
		{name: "stop-at-first-4", cfg: Config{StopAtFirst: true, Parallelism: 4}, prog: failingProgram, wantFail: true},
		{name: "stop-at-first-fast", cfg: Config{StopAtFirst: true, FastMode: true, MaxExecutions: 500}, prog: failingProgram, wantFail: true},
		{name: "max-executions", cfg: Config{MaxExecutions: 3}, prog: manyExecProgram},
		{name: "max-executions-4", cfg: Config{MaxExecutions: 3, Parallelism: 4}, prog: manyExecProgram},
		{name: "interrupt", cfg: Config{Interrupt: closed}, prog: manyExecProgram},
		{name: "interrupt-fast", cfg: Config{Interrupt: closed, FastMode: true}, prog: manyExecProgram},
		{name: "user-panic", prog: panicProgram, wantFail: true},
		{name: "user-panic-4", cfg: Config{Parallelism: 4}, prog: panicProgram, wantFail: true},
		{name: "goexit", prog: goexitProgram},
		{name: "unpooled", cfg: Config{DisablePooling: true}, prog: failingProgram, wantFail: true},
		{name: "unpooled-4", cfg: Config{DisablePooling: true, Parallelism: 4}, prog: manyExecProgram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			res := Explore(tc.cfg, tc.prog)
			if tc.wantFail && res.FailureCount == 0 {
				t.Fatalf("expected a failure: %v", res)
			}
			if !tc.wantFail && res.FailureCount != 0 {
				t.Fatalf("unexpected failure: %v", res.FirstFailure())
			}
			if n := settledGoroutines(base); n > base {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("%d goroutines after Explore, %d before:\n%s", n, base, buf)
			}
		})
	}
}
