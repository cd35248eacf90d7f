// Command perfbench is the repository's benchmark: it drives the checker,
// the CDSSpec layer, fast mode and the verification service through their
// public entry points on four named workloads, checks every verdict against
// ground truth, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as one JSON object on its last line.
//
//	go run . --workload fig7-full --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 15

// workload is one named benchmark input set.
type workload interface {
	// setup builds everything the workload needs before its first
	// operation. It is called setupReps times; the last build is used.
	setup(seed int64) error
	// pass performs the workload's fixed work once.
	pass(r *recorder) error
	// layers runs the traced-only per-layer measurements and adds their
	// metrics to m.
	layers(r *recorder, m metrics) error
	// close releases what setup acquired.
	close()
}

// workloads maps each workload name to its constructor, which receives a
// directory the run may keep state in; it is removed when the run ends.
var workloads = map[string]func(dir string) workload{
	"fig7-full":    func(string) workload { return &fig7Full{} },
	"fig8-reduced": func(string) workload { return &fig8Reduced{} },
	"fast-screen":  func(string) workload { return &fastScreen{} },
	"serve-mix":    func(dir string) workload { return &serveMix{dir: dir} },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds (whole passes)")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for span files and the counter ledger")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	state := filepath.Join(*outDir, fmt.Sprintf("state-%d", os.Getpid()))
	correct, err := run(*name, mk(state), *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	// Make the removal durable before exiting, so the next run's set-up
	// fsyncs do not queue behind this run's writeback.
	os.RemoveAll(state)
	harness.SyncDir(*outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run measures one workload and prints its report. It reports whether
// every verdict and count agreed with ground truth.
func run(name string, w workload, seed int64, budget time.Duration, traced bool, outDir string) (bool, error) {
	// All workloads are single-exploration, single-worker by design; two
	// procs leave room for the daemon's HTTP side in serve-mix without
	// letting the machine's core count change what is measured.
	runtime.GOMAXPROCS(2)
	calib := calibrate()
	fmt.Printf("perfbench %s seed=%d seconds=%v trace=%v\n", name, seed, budget.Seconds(), traced)
	fmt.Printf("calibration: %.3f ms for a fixed CPU loop (machine drift reference, not gated)\n", ms(calib))

	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		// Start every set-up from a collected heap, so one rep does not
		// pay for the garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return false, fmt.Errorf("setting up %s: %w", name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer w.close()
	fmt.Printf("set-up reps:")
	for _, d := range setups {
		fmt.Printf(" %.1fus", us(d))
	}
	fmt.Println()

	r := &recorder{}
	var ref ledger
	var walls []time.Duration
	measure := func() (time.Duration, error) {
		r.tally = tally{}
		t0 := time.Now()
		if err := w.pass(r); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		got := r.tally.ledger()
		if ref == nil {
			ref = got
		} else if diff := ref.diff(got); diff != "" {
			return 0, fmt.Errorf("counts differ between passes of the same inputs: %s", diff)
		}
		return d, nil
	}

	out := output{Metrics: metrics{}}
	if !traced {
		start := time.Now()
		for len(walls) == 0 || time.Since(start)+walls[len(walls)-1] <= budget {
			d, err := measure()
			if err != nil {
				return false, err
			}
			walls = append(walls, d)
		}
		lat := r.inputLatencies()
		out.Metrics.set("setup_s", median(setups).Seconds(), "s")
		out.Metrics.set("wall_s", median(walls).Seconds(), "s")
		out.Metrics.set("jobs_per_s", float64(r.tally.verdicts)/median(walls).Seconds(), "1/s")
		out.Metrics.set("verdict_p50_ms", ms(quantile(lat, 0.5)), "ms")
		out.Metrics.set("verdict_p90_ms", ms(quantile(lat, 0.9)), "ms")
		out.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
		fmt.Printf("passes: %d, verdicts: %d (%d inputs), pass walls:", len(walls), r.attempted, len(lat))
		for _, d := range walls {
			fmt.Printf(" %.3fs", d.Seconds())
		}
		fmt.Println()
	} else {
		// Untraced and traced passes alternate while another pair fits in
		// the budget:
		// the ratio of their median walls is the tracing overhead, and
		// their counts must match exactly. The layer metrics come from the
		// last traced pass.
		var plain []time.Duration
		tr, hooks := newTracer(), &hookTimes{}
		start := time.Now()
		for len(walls) == 0 || time.Since(start)+plain[len(plain)-1]+walls[len(walls)-1] <= budget {
			r.trace, r.hooks = nil, nil
			d, err := measure()
			if err != nil {
				return false, err
			}
			plain = append(plain, d)
			r.plainRowWall = r.tally.rowWall
			r.trace, r.hooks = tr, hooks
			if d, err = measure(); err != nil {
				return false, err
			}
			walls = append(walls, d)
		}
		r.tally.layerMetrics(out.Metrics)
		r.hooks.layerMetrics(out.Metrics)
		out.Metrics.set("trace.overhead_frac", median(walls).Seconds()/median(plain).Seconds()-1, "frac")
		out.Metrics.set("machine.calib_ms", ms(calib), "ms")
		if err := w.layers(r, out.Metrics); err != nil {
			return false, err
		}
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := r.trace.write(path); err != nil {
			return false, err
		}
		fmt.Printf("spans: %d written to %s\n", len(r.trace.spans), path)
	}

	if err := checkLedger(outDir, name, seed, ref); err != nil {
		r.wrong = append(r.wrong, err.Error())
	}
	out.Attempted = r.attempted
	out.Failed = len(r.wrong)
	out.Correct = out.Failed == 0
	printTable(out, r, ref)
	blob, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(blob))
	return out.Correct, nil
}

func printTable(out output, r *recorder, ref ledger) {
	for _, k := range sortedKeys(ref) {
		fmt.Printf("  count  %-28s %d\n", k, ref[k])
	}
	for _, k := range sortedKeys(out.Metrics) {
		m := out.Metrics[k]
		fmt.Printf("  metric %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	wrongFrac := float64(len(r.wrong)) / float64(max(r.attempted, 1))
	fmt.Printf("  metric %-28s %14.6g frac (%d of %d verdicts)\n", "wrong_frac", wrongFrac, len(r.wrong), r.attempted)
	for _, w := range r.wrong {
		fmt.Printf("WRONG: %s\n", w)
	}
}
