package checker

import (
	"math/rand"
	"testing"
)

// TestSleepSetBitmask pins the bitmask sleep set at both ends of its
// width (tids 0 and 63) and checks that wake removes exactly the
// dependent sleepers, keeping independent ones asleep.
func TestSleepSetBitmask(t *testing.T) {
	var s sleepSet
	write1 := pendSig{class: sigMem, loc: 1, write: true}
	read2 := pendSig{class: sigMem, loc: 2}
	lock1 := pendSig{class: sigMutex, loc: 1, write: true}
	s.sleep(0, write1)
	s.sleep(maxSleepThreads-1, read2)
	s.sleep(5, lock1)
	for tid := 0; tid < maxSleepThreads; tid++ {
		want := tid == 0 || tid == 5 || tid == maxSleepThreads-1
		if s.asleep(tid) != want {
			t.Fatalf("asleep(%d) = %v, want %v", tid, s.asleep(tid), want)
		}
	}

	// A read of location 1 conflicts only with tid 0's pending write.
	s.wake(pendSig{class: sigMem, loc: 1})
	if s.asleep(0) {
		t.Error("tid 0 (write of loc 1) slept through a read of loc 1")
	}
	if !s.asleep(maxSleepThreads-1) || !s.asleep(5) {
		t.Error("wake removed an independent sleeper")
	}

	// A read of location 2 commutes with tid 63's read of it.
	s.wake(pendSig{class: sigMem, loc: 2})
	if !s.asleep(maxSleepThreads - 1) {
		t.Error("read/read on loc 2 woke tid 63")
	}
	s.wake(pendSig{class: sigMem, loc: 2, write: true})
	if s.asleep(maxSleepThreads - 1) {
		t.Error("tid 63 (read of loc 2) slept through a write of loc 2")
	}
	if !s.asleep(5) {
		t.Error("a memory op woke the mutex sleeper")
	}

	s.clear()
	for tid := 0; tid < maxSleepThreads; tid++ {
		if s.asleep(tid) {
			t.Fatalf("tid %d asleep after clear", tid)
		}
	}
}

// TestSleepSetMatchesMapModel drives the bitmask set and a map-based
// model of the same contract with one random stream of sleep/wake/clear
// steps over the full tid range, comparing membership after each step.
func TestSleepSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randSig := func() pendSig {
		return pendSig{
			class: sigClass(rng.Intn(int(sigYield) + 1)),
			loc:   rng.Intn(3),
			write: rng.Intn(2) == 0,
			sc:    rng.Intn(4) == 0,
		}
	}
	var s sleepSet
	model := map[int]pendSig{}
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			tid, sig := rng.Intn(maxSleepThreads), randSig()
			s.sleep(tid, sig)
			model[tid] = sig
		case r < 9:
			ex := randSig()
			s.wake(ex)
			for tid, sig := range model {
				if dependent(sig, ex) {
					delete(model, tid)
				}
			}
		default:
			s.clear()
			clear(model)
		}
		for tid := 0; tid < maxSleepThreads; tid++ {
			if _, want := model[tid]; s.asleep(tid) != want {
				t.Fatalf("step %d: asleep(%d) = %v, model says %v", step, tid, s.asleep(tid), want)
			}
		}
	}
}
