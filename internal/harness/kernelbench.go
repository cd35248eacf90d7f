package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/checker"
)

// This file implements the kernel benchmark gate: every paper benchmark's
// primary unit test explored through the bare checker — no spec monitor
// attached, so the measurement isolates the memory-model kernel — once
// with the hot-path optimizations on, once with them off, and once under
// the work-stealing parallel engine. The rows back EXPERIMENTS.md's
// before/after table and the BENCH_kernel.json CI artifact.

// KernelRow is one benchmark's kernel before/after measurement.
type KernelRow struct {
	Name       string `json:"name"`
	Executions int    `json:"executions"`
	Feasible   int    `json:"feasible"`
	// OptTime/OptAllocs measure the run with every kernel optimization
	// on (the defaults); BaseTime/BaseAllocs with every optimization
	// off. Allocs counts heap allocations (runtime MemStats.Mallocs
	// delta over the run).
	OptTime    time.Duration `json:"opt_ns"`
	BaseTime   time.Duration `json:"base_ns"`
	OptAllocs  uint64        `json:"opt_allocs"`
	BaseAllocs uint64        `json:"base_allocs"`
	// Identical reports that both runs produced the same Executions,
	// Feasible, Pruned, and FailureCount — the optimizations are pure
	// performance transformations, so anything else is a checker bug.
	Identical bool `json:"identical"`

	// Work-stealing columns (schema v2): the same exploration with
	// WsWorkers workers, optimizations on. WsBusy is
	// the summed wall clock workers spent inside executions; the
	// steal-efficiency number the CI table prints is
	// WsBusy / (WsTime × WsWorkers). WsIdentical additionally requires the
	// parallel run's Stats (timings and scheduler telemetry excluded) to
	// match the one-worker optimized run bit-for-bit.
	WsTime      time.Duration `json:"ws_ns,omitempty"`
	WsWorkers   int           `json:"ws_workers,omitempty"`
	WsBusy      time.Duration `json:"ws_busy_ns,omitempty"`
	WsSteals    int           `json:"ws_steals,omitempty"`
	WsIdentical bool          `json:"ws_identical,omitempty"`

	// Reduction columns (schema v3): the same exploration, one worker
	// with optimizations on, under the full execution-equivalence
	// reduction set (RedReduce records it). The (Executions,
	// RedExecutions) pair is the before/after executions-explored
	// column in EXPERIMENTS.md; RedClasses is the rf-equivalence class
	// count the reduced run partitioned the space into. Without a spec
	// monitor attached the reduction is pure kernel-state caching, so
	// the failure count must be unchanged — RedIdentical pins that.
	RedTime       time.Duration `json:"red_ns,omitempty"`
	RedReduce     string        `json:"red_reduce,omitempty"`
	RedExecutions int           `json:"red_executions,omitempty"`
	RedClasses    int           `json:"red_classes,omitempty"`
	RedIdentical  bool          `json:"red_identical,omitempty"`
}

// SpeedupX is the wall-clock ratio base/opt (>1 means the optimizations
// help).
func (r KernelRow) SpeedupX() float64 {
	if r.OptTime <= 0 {
		return 0
	}
	return float64(r.BaseTime) / float64(r.OptTime)
}

// AllocReductionPct is the percentage of heap allocations the optimized
// run avoids relative to the baseline.
func (r KernelRow) AllocReductionPct() float64 {
	if r.BaseAllocs == 0 {
		return 0
	}
	return 100 * (1 - float64(r.OptAllocs)/float64(r.BaseAllocs))
}

// ReductionX is the executions-explored ratio unreduced/reduced (>1
// means the reduction shrank the space).
func (r KernelRow) ReductionX() float64 {
	if r.RedExecutions <= 0 {
		return 0
	}
	return float64(r.Executions) / float64(r.RedExecutions)
}

// WsSpeedupX is the wall-clock ratio of the one-worker optimized run to
// the WsWorkers run (>1 means the extra workers help).
func (r KernelRow) WsSpeedupX() float64 {
	if r.WsTime <= 0 {
		return 0
	}
	return float64(r.OptTime) / float64(r.WsTime)
}

// WsBusyPct is the steal-efficiency column: the fraction of the parallel
// run's worker-seconds spent inside executions rather than stealing or
// parked, as a percentage. Low values mean the frontier was too shallow
// to feed the workers.
func (r KernelRow) WsBusyPct() float64 {
	if r.WsTime <= 0 || r.WsWorkers <= 0 {
		return 0
	}
	return 100 * float64(r.WsBusy) / (float64(r.WsTime) * float64(r.WsWorkers))
}

// measureKernel explores prog exhaustively under cfg and returns the
// result with the wall clock and the heap-allocation count of the run.
func measureKernel(cfg checker.Config, prog func(*checker.Thread)) (*checker.Result, time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := checker.Explore(cfg, prog)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return res, elapsed, after.Mallocs - before.Mallocs
}

// kernelWsWorkers returns the worker count for the work-stealing leg:
// the requested parallelism if set, else min(8, GOMAXPROCS) so CI
// machines with few cores still measure a real parallel run.
func kernelWsWorkers(opts Options) int {
	if opts.Parallelism > 1 {
		return opts.Parallelism
	}
	if n := runtime.GOMAXPROCS(0); n < 8 {
		return max(n, 2)
	}
	return 8
}

// RunKernelBench measures every benchmark's kernel row. The rows run
// strictly sequentially regardless of opts.Workers — the Mallocs delta
// is process-wide, so concurrent rows would pollute each other's
// allocation counts. opts' progress callback and kernel-opt switch are
// ignored for the same reason: the three legs of the comparison are
// fixed here (opts.Parallelism only overrides the work-stealing leg's
// worker count).
func RunKernelBench(opts Options) []KernelRow {
	wsWorkers := kernelWsWorkers(opts)
	rows := make([]KernelRow, 0, len(Benchmarks()))
	for _, b := range Benchmarks() {
		prog := b.Progs(b.Orders())[0]
		optCfg := Options{}.ExplorerConfig(b.Name)
		baseCfg := Options{DisableKernelOpts: true}.ExplorerConfig(b.Name)
		wsCfg := Options{Parallelism: wsWorkers}.ExplorerConfig(b.Name)
		redCfg := Options{Reduce: checker.ReduceAll()}.ExplorerConfig(b.Name)
		optRes, optTime, optAllocs := measureKernel(optCfg, prog)
		baseRes, baseTime, baseAllocs := measureKernel(baseCfg, prog)
		wsRes, wsTime, _ := measureKernel(wsCfg, prog)
		redRes, redTime, _ := measureKernel(redCfg, prog)
		rows = append(rows, KernelRow{
			Name:       b.Name,
			Executions: optRes.Executions,
			Feasible:   optRes.Feasible,
			OptTime:    optTime,
			BaseTime:   baseTime,
			OptAllocs:  optAllocs,
			BaseAllocs: baseAllocs,
			Identical: optRes.Executions == baseRes.Executions &&
				optRes.Feasible == baseRes.Feasible &&
				optRes.Pruned == baseRes.Pruned &&
				optRes.FailureCount == baseRes.FailureCount,
			WsTime:    wsTime,
			WsWorkers: wsWorkers,
			WsBusy:    wsRes.Stats.WorkerBusy,
			WsSteals:  wsRes.Stats.Steals,
			WsIdentical: wsRes.Executions == optRes.Executions &&
				wsRes.Feasible == optRes.Feasible &&
				wsRes.Pruned == optRes.Pruned &&
				wsRes.FailureCount == optRes.FailureCount &&
				wsRes.Stats.WithoutTimings() == optRes.Stats.WithoutTimings(),
			RedTime:       redTime,
			RedReduce:     checker.ReduceAll().String(),
			RedExecutions: redRes.Executions,
			RedClasses:    redRes.Stats.RFClasses,
			RedIdentical:  redRes.FailureCount == optRes.FailureCount,
		})
	}
	return rows
}

// KernelSnapshotSchema identifies the BENCH_kernel.json layout. v3 added
// the execution-equivalence reduction columns (red_ns, red_reduce,
// red_executions, red_classes, red_identical); v2 added the
// work-stealing columns. Both changes are additive, so older blobs stay
// readable through ReadKernelSnapshot (absent columns decode as zero and
// render as "n/a").
const KernelSnapshotSchema = "cdsspec-kernelbench/v3"

// KernelSnapshotSchemaV2 is the pre-reduction layout, still accepted by
// ReadKernelSnapshot so CI can diff against archived artifacts.
const KernelSnapshotSchemaV2 = "cdsspec-kernelbench/v2"

// KernelSnapshotSchemaV1 is the pre-work-stealing layout, still accepted
// by ReadKernelSnapshot so CI can diff against archived artifacts.
const KernelSnapshotSchemaV1 = "cdsspec-kernelbench/v1"

// KernelSnapshot is the serialized form of a kernel benchmark run.
type KernelSnapshot struct {
	Schema string      `json:"schema"`
	Rows   []KernelRow `json:"kernel"`
}

// KernelSnapshotJSON serializes rows into the BENCH_kernel.json blob.
func KernelSnapshotJSON(rows []KernelRow) ([]byte, error) {
	return json.MarshalIndent(&KernelSnapshot{Schema: KernelSnapshotSchema, Rows: rows}, "", "  ")
}

// ReadKernelSnapshot decodes a BENCH_kernel.json blob produced by this
// or an earlier supported schema version, rejecting unknown schemas
// outright rather than misreading them.
func ReadKernelSnapshot(data []byte) (*KernelSnapshot, error) {
	var s KernelSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding kernel snapshot: %w", err)
	}
	switch s.Schema {
	case KernelSnapshotSchema, KernelSnapshotSchemaV2, KernelSnapshotSchemaV1:
		return &s, nil
	default:
		return nil, fmt.Errorf("unsupported kernel snapshot schema %q (want %q, %q, or %q)",
			s.Schema, KernelSnapshotSchema, KernelSnapshotSchemaV2, KernelSnapshotSchemaV1)
	}
}

// FormatKernelBench renders the rows as the EXPERIMENTS.md-style table,
// including the work-stealing columns — ws-time is the parallel wall
// clock, ws-speedup the one-worker/parallel ratio, busy the
// steal-efficiency (worker busy-fraction), steals the cross-deque task
// transfers — and the reduction columns: red-execs is the executions
// explored with the full reduction set on, red-x the unreduced/reduced
// ratio, classes the rf-equivalence class count. Rows from older
// snapshots render missing legs as "n/a".
func FormatKernelBench(rows []KernelRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %10s %12s %12s %8s %12s %12s %8s %9s %12s %10s %6s %7s %-12s %10s %8s %8s\n",
		"benchmark", "execs", "base-time", "opt-time", "speedup", "base-allocs", "opt-allocs", "alloc-%", "identical",
		"ws-time", "ws-speedup", "busy", "steals", "ws-identical", "red-execs", "red-x", "classes")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %10d %12s %12s %7.2fx %12d %12d %7.1f%% %9v ",
			r.Name, r.Executions,
			r.BaseTime.Round(10*time.Microsecond), r.OptTime.Round(10*time.Microsecond),
			r.SpeedupX(), r.BaseAllocs, r.OptAllocs, r.AllocReductionPct(), r.Identical)
		if r.WsWorkers > 0 {
			fmt.Fprintf(&sb, "%12s %10s %5.1f%% %6d %-12v ",
				r.WsTime.Round(10*time.Microsecond),
				fmt.Sprintf("%.2fx/%dw", r.WsSpeedupX(), r.WsWorkers),
				r.WsBusyPct(), r.WsSteals, r.WsIdentical)
		} else {
			fmt.Fprintf(&sb, "%12s %10s %6s %6s %-12s ", "n/a", "n/a", "n/a", "n/a", "n/a")
		}
		if r.RedExecutions > 0 {
			fmt.Fprintf(&sb, "%10d %7.2fx %8d\n", r.RedExecutions, r.ReductionX(), r.RedClasses)
		} else {
			fmt.Fprintf(&sb, "%10s %8s %8s\n", "n/a", "n/a", "n/a")
		}
	}
	return sb.String()
}
