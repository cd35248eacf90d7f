package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memmodel"
)

// row is one benchmark's primary unit test under its correct orders.
type row struct {
	name string
	spec *core.Spec
	prog func(*checker.Thread)
}

func primaryRows() []row {
	var rows []row
	for _, b := range harness.Benchmarks() {
		rows = append(rows, row{name: b.Name, spec: b.Spec(), prog: b.Progs(b.Orders())[0]})
	}
	return rows
}

var reduceAll = checker.ReduceSet{RF: true, Symmetry: true, Spinloop: true}

// explore runs one spec-checked exploration and adds it to the pass.
func (r *recorder) explore(name string, spec *core.Spec, prog func(*checker.Thread), cfg checker.Config, parent int64) (*checker.Result, time.Duration) {
	sp := r.trace.begin("core.Explore", name, parent)
	cfg = r.hooks.wrap(cfg, r.trace, sp.id, name)
	t0 := time.Now()
	res := core.Explore(spec, cfg, prog)
	d := time.Since(t0)
	r.hooks.done()
	r.trace.end(sp)
	r.tally.add(res, d)
	return res, d
}

// exploreCorrect explores a correct-order row exhaustively: the ground
// truth is no failure and an exhausted space.
func (r *recorder) exploreCorrect(rw row, cfg checker.Config, parent int64) {
	res, d := r.explore(rw.name, rw.spec, rw.prog, cfg, parent)
	r.tally.rowWall += d
	r.verdict("explore "+rw.name, d, correctWhy(res))
}

// correctWhy explains why a correct-order exploration's result is wrong,
// or returns "".
func correctWhy(res *checker.Result) string {
	switch {
	case res.FailureCount > 0:
		f := res.FirstFailure()
		return fmt.Sprintf("correct orders reported %d failure(s), first %s: %s", res.FailureCount, f.Kind, f.Msg)
	case !res.Exhausted:
		return "exploration stopped before exhausting the space"
	}
	return ""
}

// fig7Full explores every Figure 7 primary unit test exhaustively,
// unreduced, spec attached, sequential DFS. The seed only permutes the
// order rows run in; the rows themselves are the paper's.
type fig7Full struct {
	rows []row
	rng  *rand.Rand
}

func (w *fig7Full) setup(seed int64) error {
	w.rows = primaryRows()
	w.rng = rand.New(rand.NewSource(seed))
	return nil
}

func (w *fig7Full) pass(r *recorder) error {
	ps := r.trace.begin("pass", "fig7-full", 0)
	defer r.trace.end(ps)
	for _, i := range w.rng.Perm(len(w.rows)) {
		r.exploreCorrect(w.rows[i], checker.Config{}, ps.id)
	}
	return nil
}

func (w *fig7Full) layers(r *recorder, m metrics) error {
	kernelLayer(r, kernelRuns(w.rows, checker.Config{}), m)
	engineLayer(r, w.rows, checker.Config{}, m)
	return nil
}

func (w *fig7Full) close() {}

// trial is one Figure 8 injection: a one-step weakening of one site.
type trial struct {
	bench        string
	site         string
	spec         *core.Spec
	progs        []func(*checker.Thread)
	undetectable bool
}

// fig8Reduced runs the ten Figure 7 rows and every Figure 8 one-step
// weakening (stopping at the first failure), all under every reduction.
type fig8Reduced struct {
	rows   []row
	trials []trial
	rng    *rand.Rand
}

func (w *fig8Reduced) setup(seed int64) error {
	w.rows = primaryRows()
	w.trials = nil
	for i, b := range harness.Benchmarks() {
		defaults := b.Orders()
		for _, weak := range defaults.Weakenings() {
			site := changedSite(defaults, weak)
			if site == "" {
				return fmt.Errorf("%s: a weakening changes no site", b.Name)
			}
			w.trials = append(w.trials, trial{
				bench:        b.Name,
				site:         fmt.Sprintf("%s %s->%s", site, defaults.Get(site), weak.Get(site)),
				spec:         w.rows[i].spec,
				progs:        b.Progs(weak),
				undetectable: b.UndetectableSites[site],
			})
		}
	}
	w.rng = rand.New(rand.NewSource(seed))
	return nil
}

func changedSite(defaults, weak *memmodel.OrderTable) string {
	for _, s := range defaults.Sites() {
		if weak.Get(s.Name) != s.Default {
			return s.Name
		}
	}
	return ""
}

func (w *fig8Reduced) pass(r *recorder) error {
	ps := r.trace.begin("pass", "fig8-reduced", 0)
	defer r.trace.end(ps)
	for _, i := range w.rng.Perm(len(w.rows) + len(w.trials)) {
		if i < len(w.rows) {
			r.exploreCorrect(w.rows[i], checker.Config{Reduce: reduceAll}, ps.id)
			continue
		}
		r.inject(w.trials[i-len(w.rows)], ps.id)
	}
	return nil
}

// inject runs one injection trial the way Figure 8 does: each unit test
// in turn until one fails. Ground truth: a weakening at a site not known
// to be undetectable must be detected through a real detection channel.
func (r *recorder) inject(t trial, parent int64) {
	name := t.bench + " [" + t.site + "]"
	sp := r.trace.begin("trial", name, parent)
	var hit *checker.Failure
	var d time.Duration
	for _, prog := range t.progs {
		res, pd := r.explore(name, t.spec, prog, checker.Config{Reduce: reduceAll, StopAtFirst: true}, sp.id)
		d += pd
		if f := res.FirstFailure(); f != nil {
			hit = f
			break
		}
	}
	r.trace.end(sp)
	why := ""
	if (hit == nil || hit.Kind.Channel() == "none") && !t.undetectable {
		why = "injected bug missed"
	}
	r.verdict("inject "+name, d, why)
}

func (w *fig8Reduced) layers(r *recorder, m metrics) error {
	kernelLayer(r, kernelRuns(w.rows, checker.Config{Reduce: reduceAll}), m)
	engineLayer(r, w.rows, checker.Config{Reduce: reduceAll}, m)
	return nil
}

func (w *fig8Reduced) close() {}

// kernelRun is one bare-checker exploration of the kernel layer.
type kernelRun struct {
	name string
	cfg  checker.Config
	prog func(*checker.Thread)
}

func kernelRuns(rows []row, cfg checker.Config) []kernelRun {
	var out []kernelRun
	for _, rw := range rows {
		out = append(out, kernelRun{rw.name, cfg, rw.prog})
	}
	return out
}

// kernelLayer explores runs through the bare checker — no spec monitor —
// strictly one after another, so the process-wide allocation delta belongs
// to one exploration at a time. It reports the kernel's throughput and, on
// workloads whose untraced pass explored the same correct-order rows with
// the spec attached, the share of that wall the kernel does not account
// for.
func kernelLayer(r *recorder, runs []kernelRun, m metrics) {
	var execs, steps int
	var mallocs uint64
	var wall time.Duration
	var before, after runtime.MemStats
	for _, k := range runs {
		runtime.GC()
		runtime.ReadMemStats(&before)
		sp := r.trace.begin("checker.Explore", k.name, 0)
		t0 := time.Now()
		res := checker.Explore(k.cfg, k.prog)
		wall += time.Since(t0)
		r.trace.end(sp)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		execs += res.Executions
		steps += res.Stats.TotalSteps
	}
	m.set("checker.kernel_execs_per_s", ratio(float64(execs), wall.Seconds()), "1/s")
	m.set("checker.kernel_ns_per_step", ratio(float64(wall.Nanoseconds()), float64(steps)), "ns")
	m.set("checker.allocs_per_exec", ratio(float64(mallocs), float64(execs)), "count")
	if r.plainRowWall > 0 {
		m.set("core.overhead_frac", 1-wall.Seconds()/r.plainRowWall.Seconds(), "frac")
	}
}

// engineLayer reruns rows at one worker with an Interrupt channel that is
// never closed, which routes DFS through the work-stealing engine, and
// reports its wall as a ratio to the sequential explorations of the
// untraced pass, plus the engine's busy share.
func engineLayer(r *recorder, rows []row, cfg checker.Config, m metrics) {
	cfg.Interrupt = make(chan struct{})
	var wall, busy, elapsed time.Duration
	for _, rw := range rows {
		sp := r.trace.begin("core.Explore[engine]", rw.name, 0)
		t0 := time.Now()
		res := core.Explore(rw.spec, cfg, rw.prog)
		d := time.Since(t0)
		r.trace.end(sp)
		wall += d
		busy += res.Stats.WorkerBusy
		elapsed += res.Elapsed
		r.verdict("explore[engine] "+rw.name, d, correctWhy(res))
	}
	m.set("checker.engine.one_worker_ratio", ratio(wall.Seconds(), r.plainRowWall.Seconds()), "ratio")
	m.set("checker.engine.busy_frac", ratio(busy.Seconds(), elapsed.Seconds()), "frac")
}
