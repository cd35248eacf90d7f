package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/checker"
)

// recorder collects one run's verdicts, its per-pass tally and, in a
// traced run, the spans and hook timings. Workloads add to it from at most
// the two serve-mix submitter goroutines, so the shared parts are locked.
type recorder struct {
	mu           sync.Mutex
	tally        tally                      // the current pass
	plainRowWall time.Duration              // correct-order row wall of the last untraced pass
	latencies    map[string][]time.Duration // by input, across passes
	attempted    int
	wrong        []string

	trace *tracer    // nil in an untraced run
	hooks *hookTimes // nil in an untraced run
}

// verdict records one verdict on the input op names: its latency and,
// when why is non-empty, why it disagrees with ground truth.
func (r *recorder) verdict(op string, d time.Duration, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.verdictLocked(op, op, d, why)
}

// verdictLocked is verdict for a caller holding r.mu whose input key
// differs from the operation's name.
func (r *recorder) verdictLocked(input, op string, d time.Duration, why string) {
	r.attempted++
	r.tally.verdicts++
	if r.latencies == nil {
		r.latencies = map[string][]time.Duration{}
	}
	r.latencies[input] = append(r.latencies[input], d)
	if why != "" {
		r.wrong = append(r.wrong, op+": "+why)
	}
}

// inputLatencies returns each input's median verdict latency over the
// run's passes. Taking the median per input first keeps a collector pause
// that lands in one sub-millisecond exploration from moving the workload's
// quantiles.
func (r *recorder) inputLatencies() []time.Duration {
	var out []time.Duration
	for _, k := range sortedKeys(r.latencies) {
		out = append(out, median(r.latencies[k]))
	}
	return out
}

// tally sums one pass's work. Counters that a given workload never
// touches stay zero, and their per-layer metrics read 0: the layer is
// idle on that workload.
type tally struct {
	verdicts int

	// Results of every exploration and every explore/fast job.
	stats                         checker.Stats
	executions, feasible, classes int
	wall                          time.Duration // summed call walls
	rowWall                       time.Duration // correct-order primary rows only

	// Fast mode.
	fastRuns     int
	fastTime     time.Duration
	simOps       int64
	simTime      time.Duration
	runsToDetect int

	// Fuzz triage (serve-mix triage jobs).
	screened, flagged, confirmed int
	fastExecs, confirmExecs      int

	// Service stages (serve-mix jobs), and the wall of the jobs that ran
	// on the work-stealing engine.
	submit, queueWait, runT, postRun []time.Duration
	busyElapsed                      time.Duration
}

func (t *tally) add(res *checker.Result, wall time.Duration) {
	t.executions += res.Executions
	t.feasible += res.Feasible
	t.classes += res.Stats.RFClasses
	t.stats.Merge(&res.Stats)
	t.wall += wall
}

// ledger is the set of deterministic counts a pass produces: the same
// program on the same inputs must reproduce every one exactly.
type ledger map[string]int64

func (t *tally) ledger() ledger {
	return ledger{
		"executions":         int64(t.executions),
		"feasible":           int64(t.feasible),
		"total_steps":        int64(t.stats.TotalSteps),
		"replayed_decisions": int64(t.stats.ReplayedDecisions),
		"rf_classes":         int64(t.classes),
		"histories":          int64(t.stats.Histories),
		"evictions":          int64(t.stats.StoreBufferEvictions),
		"runs_to_detect":     int64(t.runsToDetect),
		"fuzz_screened":      int64(t.screened),
		"fuzz_flagged":       int64(t.flagged),
	}
}

func (l ledger) diff(o ledger) string {
	for _, k := range sortedKeys(l) {
		if l[k] != o[k] {
			return fmt.Sprintf("%s %d vs %d", k, l[k], o[k])
		}
	}
	return ""
}

// checkLedger compares a pass's counts with those an earlier run of the
// same binary recorded for the same workload and seed, traced or not, and
// records them when none exist. The binary's hash is part of the key, so a
// changed program starts a fresh ledger instead of failing the check.
func checkLedger(dir, name string, seed int64, got ledger) error {
	id, err := exeID()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "ledger", fmt.Sprintf("%s-%s-seed%d.json", id, name, seed))
	if blob, err := os.ReadFile(path); err == nil {
		var want ledger
		if err := json.Unmarshal(blob, &want); err != nil {
			return fmt.Errorf("reading counter ledger %s: %w", path, err)
		}
		if d := want.diff(got); d != "" {
			return fmt.Errorf("counts differ from an earlier run of the same binary and seed: %s", d)
		}
		return nil
	}
	blob, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// perLayer lists every per-layer metric with its unit, in the order the
// traced run fills them. A metric a workload does not measure reads 0.
var perLayer = []struct{ name, unit string }{
	{"checker.executions", "count"},
	{"checker.feasible_frac", "frac"},
	{"checker.total_steps", "count"},
	{"checker.replayed_decisions", "count"},
	{"checker.kernel_execs_per_s", "1/s"},
	{"checker.kernel_ns_per_step", "ns"},
	{"checker.allocs_per_exec", "count"},
	{"checker.exec_us_p50", "us"},
	{"checker.exec_us_p90", "us"},
	{"checker.engine_gap_us_p50", "us"},
	{"checker.explore_setup_us_p50", "us"},
	{"checker.engine.one_worker_ratio", "ratio"},
	{"checker.engine.busy_frac", "frac"},
	{"checker.reduce.rf_classes", "count"},
	{"checker.reduce.execs_per_class", "ratio"},
	{"checker.reduce.rf_prunes", "count"},
	{"checker.reduce.symmetry_prunes", "count"},
	{"checker.reduce.spinloop_bounds", "count"},
	{"checker.fast.runs_per_s", "1/s"},
	{"checker.fast.sim_ops_per_s", "1/s"},
	{"checker.fast.evictions", "count"},
	{"checker.fast.runs_to_detect", "count"},
	{"core.overhead_frac", "frac"},
	{"core.spec_frac", "frac"},
	{"core.cache_hit_frac", "frac"},
	{"core.histories", "count"},
	{"core.admissibility_checks", "count"},
	{"core.justify_searches", "count"},
	{"fuzz.screened", "count"},
	{"fuzz.flagged", "count"},
	{"fuzz.confirm_frac", "frac"},
	{"fuzz.confirm_exec_frac", "frac"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.post_run_ms_p50", "ms"},
	{"trace.overhead_frac", "frac"},
	{"machine.calib_ms", "ms"},
}

// layerMetrics fills every per-layer metric the tally can answer and
// zeroes the rest, so a traced run always prints the full list.
func (t *tally) layerMetrics(m metrics) {
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
	s := &t.stats
	m.set("checker.executions", float64(t.executions), "count")
	m.set("checker.feasible_frac", ratio(float64(t.feasible), float64(t.executions)), "frac")
	m.set("checker.total_steps", float64(s.TotalSteps), "count")
	m.set("checker.replayed_decisions", float64(s.ReplayedDecisions), "count")
	m.set("checker.engine.busy_frac", ratio(s.WorkerBusy.Seconds(), t.busyElapsed.Seconds()), "frac")
	m.set("checker.reduce.rf_classes", float64(t.classes), "count")
	m.set("checker.reduce.execs_per_class", ratio(float64(t.executions), float64(t.classes)), "ratio")
	m.set("checker.reduce.rf_prunes", float64(s.RFEquivPrunes), "count")
	m.set("checker.reduce.symmetry_prunes", float64(s.SymmetryPrunes), "count")
	m.set("checker.reduce.spinloop_bounds", float64(s.SpinloopBounds), "count")
	m.set("checker.fast.runs_per_s", ratio(float64(t.fastRuns), t.fastTime.Seconds()), "1/s")
	m.set("checker.fast.sim_ops_per_s", ratio(float64(t.simOps), t.simTime.Seconds()), "1/s")
	m.set("checker.fast.evictions", float64(s.StoreBufferEvictions), "count")
	m.set("checker.fast.runs_to_detect", float64(t.runsToDetect), "count")
	if s.Histories > 0 || s.SpecCacheHits+s.SpecCacheMisses > 0 {
		// Only when the spec layer ran: fast mode counts the benchmark's
		// own OnExecution hook as spec time.
		m.set("core.spec_frac", ratio(s.SpecTime.Seconds(), t.wall.Seconds()), "frac")
	}
	m.set("core.cache_hit_frac", ratio(float64(s.SpecCacheHits), float64(s.SpecCacheHits+s.SpecCacheMisses)), "frac")
	m.set("core.histories", float64(s.Histories), "count")
	m.set("core.admissibility_checks", float64(s.AdmissibilityChecks), "count")
	m.set("core.justify_searches", float64(s.JustifySearches), "count")
	m.set("fuzz.screened", float64(t.screened), "count")
	m.set("fuzz.flagged", float64(t.flagged), "count")
	m.set("fuzz.confirm_frac", ratio(float64(t.confirmed), float64(t.flagged)), "frac")
	m.set("fuzz.confirm_exec_frac", ratio(float64(t.confirmExecs), float64(t.fastExecs+t.confirmExecs)), "frac")
	m.set("service.submit_ms_p50", ms(quantile(t.submit, 0.5)), "ms")
	m.set("service.queue_wait_ms_p50", ms(quantile(t.queueWait, 0.5)), "ms")
	m.set("service.run_ms_p50", ms(quantile(t.runT, 0.5)), "ms")
	m.set("service.post_run_ms_p50", ms(quantile(t.postRun, 0.5)), "ms")
}

// hookTimes times the checker's OnRunStart/OnExecution hooks of the
// explorations a traced pass runs. Explorations are sequential, so one
// exploration is open at a time.
type hookTimes struct {
	execs, gaps, setups []time.Duration

	tr                        *tracer
	parent                    int64
	run                       string
	call, lastStart, lastDone time.Time
	n                         int
}

// sampleEvery is the execution period of the per-execution spans; the
// timing samples themselves cover every execution.
const sampleEvery = 256

// wrap returns cfg with timing hooks chained in front of cfg's own. A nil
// receiver returns cfg unchanged.
func (h *hookTimes) wrap(cfg checker.Config, tr *tracer, parent int64, run string) checker.Config {
	if h == nil {
		return cfg
	}
	h.tr, h.parent, h.run = tr, parent, run
	h.call, h.lastStart, h.lastDone, h.n = time.Now(), time.Time{}, time.Time{}, 0
	userStart, userExec := cfg.OnRunStart, cfg.OnExecution
	cfg.OnRunStart = func(sys *checker.System) {
		now := time.Now()
		h.closeExec(now)
		if h.lastStart.IsZero() {
			h.setups = append(h.setups, now.Sub(h.call))
		}
		if !h.lastDone.IsZero() {
			h.gaps = append(h.gaps, now.Sub(h.lastDone))
			h.lastDone = time.Time{}
		}
		h.lastStart = now
		h.n++
		if userStart != nil {
			userStart(sys)
		}
	}
	cfg.OnExecution = func(sys *checker.System) []*checker.Failure {
		var fails []*checker.Failure
		if userExec != nil {
			fails = userExec(sys)
		}
		h.lastDone = time.Now()
		return fails
	}
	return cfg
}

// closeExec ends the open execution at end.
func (h *hookTimes) closeExec(end time.Time) {
	if h.lastStart.IsZero() {
		return
	}
	h.execs = append(h.execs, end.Sub(h.lastStart))
	if h.n%sampleEvery == 1 {
		h.tr.add("checker.execution", h.run, h.parent, h.lastStart, end)
	}
}

// done ends the exploration wrap opened.
func (h *hookTimes) done() {
	if h == nil {
		return
	}
	h.closeExec(time.Now())
	h.lastStart = time.Time{}
}

func (h *hookTimes) layerMetrics(m metrics) {
	m.set("checker.exec_us_p50", us(quantile(h.execs, 0.5)), "us")
	m.set("checker.exec_us_p90", us(quantile(h.execs, 0.9)), "us")
	m.set("checker.engine_gap_us_p50", us(quantile(h.gaps, 0.5)), "us")
	m.set("checker.explore_setup_us_p50", us(quantile(h.setups, 0.5)), "us")
}

// span is one traced interval. Times are nanoseconds since the tracer
// started; Parent 0 means a root span; Run groups the spans of one
// exploration, trial or job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. Every method is a no-op on a
// nil tracer, which is how untraced runs skip tracing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started but not ended.
type open struct {
	id, parent int64
	run, name  string
	start      time.Time
}

func (t *tracer) begin(name, run string, parent int64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return open{id: t.next, parent: parent, run: run, name: name, start: time.Now()}
}

func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Run: o.run, Name: o.name,
		Start: o.start.Sub(t.t0).Nanoseconds(), End: time.Since(t.t0).Nanoseconds()})
}

// add records an already finished span.
func (t *tracer) add(name, run string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) write(path string) error {
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
