package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/fuzz"
	"repro/internal/service"
)

// Serve-mix shape: two closed-loop submitters, each with its own list of
// jobs per pass. Every list holds listRounds rounds of the same work — one
// explore job per small benchmark, fastPerRound fast screens and two triage
// campaigns — so seeds change which jobs meet in the queue, the fast and
// triage seeds and the order, but not how much work a pass holds. Several
// rounds per list keep the latency quantiles off the edge between two job
// classes.
const (
	submitters   = 2
	listRounds   = 3
	fastPerRound = 5
)

// smallExplore lists the benchmarks whose exhaustive exploration takes
// well under 0.2 s, so explore jobs expose per-job costs rather than
// kernel time. Fast screens cover these and the three large ones.
var (
	smallExplore = []string{
		"Chase-Lev Deque", "SPSC Queue", "RCU", "Lockfree Hashtable",
		"MCS Lock", "M&S Queue", "Ticket Lock",
	}
	largeExplore = []string{"MPMC Queue", "Seqlock", "Linux RW Lock"}
)

// serveMix drives an in-process daemon on a state directory of its own
// through service.Client, from two closed-loop submitters.
type serveMix struct {
	dir    string
	srv    *service.Server
	client *service.Client
	lists  [submitters][]service.JobSpec
}

func (w *serveMix) setup(seed int64) error {
	w.lists = jobLists(seed)
	// Every set-up rep opens the same state directory: the first creates
	// it, the rest reopen it with an empty journal, as a restarted daemon
	// would.
	srv, err := service.Open(service.Config{StateDir: w.dir})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		srv.Drain()
		return err
	}
	w.srv = srv
	w.client = &service.Client{Base: srv.Addr()}
	for deadline := time.Now().Add(10 * time.Second); ; {
		err := w.client.Health()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobLists draws each submitter's jobs from seed. Every job runs on one
// worker.
func jobLists(seed int64) [submitters][]service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	fastBenches := append(append([]string(nil), smallExplore...), largeExplore...)
	var lists [submitters][]service.JobSpec
	for i := range lists {
		var l []service.JobSpec
		for round := 0; round < listRounds; round++ {
			for _, b := range smallExplore {
				l = append(l, service.JobSpec{Kind: service.KindExplore, Benchmark: b, Parallelism: 1})
			}
			for _, b := range fastBenches[i*fastPerRound : (i+1)*fastPerRound] {
				l = append(l, service.JobSpec{Kind: service.KindFast, Benchmark: b,
					Seed: rng.Uint64() >> 1, MaxExecutions: 500, Parallelism: 1})
			}
			// The M&S queue's generated programs are the ones the screen
			// flags, so its campaign also runs the confirm tier, bounded
			// by a small budget.
			for _, b := range []string{smallExplore[i], "M&S Queue"} {
				l = append(l, service.JobSpec{Kind: service.KindTriage, Benchmark: b,
					Seed: rng.Uint64() >> 1, Count: 4, FastRuns: 50, Budget: 200, Parallelism: 1})
			}
		}
		rng.Shuffle(len(l), func(a, b int) { l[a], l[b] = l[b], l[a] })
		lists[i] = l
	}
	return lists
}

func (w *serveMix) pass(r *recorder) error {
	ps := r.trace.begin("pass", "serve-mix", 0)
	defer r.trace.end(ps)
	var wg sync.WaitGroup
	errs := make([]error, submitters)
	for i := range w.lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, spec := range w.lists[i] {
				input := fmt.Sprintf("submitter %d job %d", i, j)
				if err := w.job(r, input, spec, ps.id); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// job submits one job and waits for its terminal event; input names the
// job's place in its submitter's list. Ground truth: the job ends done, and
// an explore or fast job on correct orders reports no failure.
func (w *serveMix) job(r *recorder, input string, spec service.JobSpec, parent int64) error {
	t0 := time.Now()
	v, err := w.client.Submit(spec)
	acked := time.Now()
	if err != nil {
		return fmt.Errorf("submitting %s %s: %w", spec.Kind, spec.Benchmark, err)
	}
	var running time.Time
	last, err := w.client.Watch(v.ID, func(ev service.Event) bool {
		if ev.State == service.StateRunning && running.IsZero() {
			running = time.Now()
		}
		return !ev.State.Terminal()
	})
	end := time.Now()
	if err != nil {
		return fmt.Errorf("watching job %s: %w", v.ID, err)
	}
	op := fmt.Sprintf("job %s %s %s", v.ID, spec.Kind, spec.Benchmark)
	why := ""
	switch sum := last.Summary; {
	case last.State != service.StateDone:
		why = fmt.Sprintf("ended %s %s", last.State, last.Error)
	case sum == nil:
		why = "done without a summary"
	case sum.FailureCount > 0:
		why = fmt.Sprintf("correct orders reported %d failure(s)", sum.FailureCount)
	}

	var triage *fuzz.TriageResult
	if r.trace != nil && spec.Kind == service.KindTriage && why == "" {
		if triage, err = w.readTriage(v.ID); err != nil {
			return err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace.add("service.submit", v.ID, parent, t0, acked)
	if !running.IsZero() {
		r.trace.add("service.queue_wait", v.ID, parent, acked, running)
		r.trace.add("service.run", v.ID, parent, running, end)
		r.tally.queueWait = append(r.tally.queueWait, running.Sub(acked))
		r.tally.runT = append(r.tally.runT, end.Sub(running))
		if sum := last.Summary; sum != nil {
			r.tally.postRun = append(r.tally.postRun, end.Sub(running)-sum.Elapsed)
		}
	}
	r.tally.submit = append(r.tally.submit, acked.Sub(t0))
	if sum := last.Summary; sum != nil {
		switch spec.Kind {
		case service.KindTriage:
			r.tally.screened += sum.Screened
			r.tally.flagged += sum.Flagged
			r.tally.confirmed += sum.Confirmed
		default:
			r.tally.executions += sum.Executions
			r.tally.feasible += sum.Feasible
			if sum.Stats != nil {
				r.tally.classes += sum.Stats.RFClasses
				r.tally.stats.Merge(sum.Stats)
			}
			r.tally.wall += sum.Elapsed
		}
		if spec.Kind == service.KindExplore {
			r.tally.busyElapsed += sum.Elapsed
		}
		if spec.Kind == service.KindFast {
			r.tally.fastRuns += sum.Executions
			r.tally.fastTime += sum.Elapsed
		}
	}
	if triage != nil {
		r.tally.fastExecs += triage.FastExecutions
		r.tally.confirmExecs += triage.ConfirmExecutions
	}
	r.verdictLocked(input, op, end.Sub(t0), why)
	return nil
}

// readTriage loads a finished triage job's persisted payload, which splits
// its executions between the screen and the confirm tier.
func (w *serveMix) readTriage(id string) (*fuzz.TriageResult, error) {
	blob, err := os.ReadFile(filepath.Join(w.dir, "jobs", id, "result.json"))
	if err != nil {
		return nil, fmt.Errorf("reading triage result: %w", err)
	}
	var p struct {
		Triage *fuzz.TriageResult `json:"triage"`
	}
	if err := json.Unmarshal(blob, &p); err != nil || p.Triage == nil {
		return nil, fmt.Errorf("decoding triage result of %s: %v", id, err)
	}
	return p.Triage, nil
}

func (w *serveMix) layers(r *recorder, m metrics) error {
	var rows []row
	for _, rw := range primaryRows() {
		for _, n := range smallExplore {
			if rw.name == n {
				rows = append(rows, rw)
			}
		}
	}
	kernelLayer(r, kernelRuns(rows, checker.Config{}), m)
	return nil
}

func (w *serveMix) close() {
	if w.srv != nil {
		w.srv.Drain()
		w.srv = nil
	}
}
