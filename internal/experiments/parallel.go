package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/costmodel"
	"repro/internal/join"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Parallel join load balance (extension; the paper's future-work section).
// ---------------------------------------------------------------------------

// ParallelPageSize and ParallelBufferKB fix the configuration of the
// parallel-scaling experiment: the paper's recommended SJ4 at 4 KByte pages
// with a 128 KByte buffer, partitioned across the workers.
const (
	ParallelPageSize = storage.PageSize4K
	ParallelBufferKB = 128
)

// ParallelWorkerCounts are the worker counts swept by the experiment.
var ParallelWorkerCounts = []int{1, 2, 4, 8}

// ParallelRow summarises one ParallelJoin run: the total work, how evenly it
// spread across the workers and how much the partitioned buffer cost in
// extra I/O.  Skews are max/mean ratios over the per-worker snapshots
// (1.00 = perfectly balanced); the paper's cost measures are CPU comparisons
// and disk accesses, so those are the measures whose balance decides the
// parallel speedup.
type ParallelRow struct {
	Strategy     join.PartitionStrategy
	Workers      int
	Tasks        int
	Pairs        int
	DiskAccesses int64
	// DiskOverhead is the run's total disk accesses divided by the
	// sequential join's: the price of partitioning one shared buffer into
	// per-worker slices.  1.00 means the partitioning cost nothing.
	DiskOverhead float64
	// HitRate is the share of worker node accesses satisfied from a buffer,
	// the locality measure of the schedule.
	HitRate  float64
	TaskSkew float64 // max/mean sub-join tasks per worker
	CompSkew float64 // max/mean join comparisons per worker
	DiskSkew float64 // max/mean disk accesses per worker
	// TimeSkew is max/mean of the per-worker estimated execution times, the
	// balance measure the parallel critical path depends on: a worker can
	// trade I/O against CPU (the locality-driven schedules do), so neither
	// component skew alone decides whether the workers finish together.
	TimeSkew float64
	// EstSpeedup is the speedup in estimated execution time (the paper's
	// section-5 cost model) of the parallel run over the sequential SJ4 with
	// the same total buffer: sequential estimate divided by the parallel
	// critical path (planning cost plus the slowest worker's estimate).  This
	// is the measure a single-core benchmark machine cannot show in
	// wall-clock time.
	EstSpeedup float64
}

// TableParallel joins the main pair with ParallelJoin (SJ4) under the
// spatial schedule for each worker count, and reports per-worker load-balance
// skew, buffer locality and the disk-access overhead over the sequential
// join, using the per-worker snapshots the parallel executor publishes.  The
// spatial schedule makes the per-worker split deterministic, so every row is
// a reproducible property of the plan rather than of goroutine scheduling
// (the dynamic queue's split is not, which is why it has no rows here).
func (s *Suite) TableParallel() []ParallelRow {
	r, t := s.mainPair(ParallelPageSize)
	seq := s.runJoin(r, t, join.SJ4, ParallelBufferKB, nil)
	seqEst := s.model.EstimateSnapshot(seq.Metrics, ParallelPageSize)
	var rows []ParallelRow
	for _, w := range ParallelWorkerCounts {
		res, err := join.ParallelJoin(r, t, join.ParallelOptions{
			Options: join.Options{
				Method:        join.SJ4,
				BufferBytes:   ParallelBufferKB << 10,
				UsePathBuffer: s.cfg.UsePathBuffer,
				DiscardPairs:  true,
			},
			Workers:  w,
			Strategy: join.PartitionSpatial,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: parallel join with %d workers: %v", w, err))
		}
		row := ParallelRow{
			Strategy:     join.PartitionSpatial,
			Workers:      w,
			Pairs:        res.Count,
			DiskAccesses: res.Metrics.DiskAccesses(),
			HitRate:      res.WorkerBufferHitRate(),
			TaskSkew:     res.TaskSkew(),
			CompSkew:     res.ComparisonSkew(),
			DiskSkew:     res.DiskSkew(),
			TimeSkew:     res.TimeSkew(s.model, ParallelPageSize),
		}
		for _, n := range res.WorkerTasks {
			row.Tasks += n
		}
		if seqDisk := seq.Metrics.DiskAccesses(); seqDisk > 0 {
			row.DiskOverhead = float64(res.Metrics.DiskAccesses()) / float64(seqDisk)
		}
		if par := ParallelEstimate(s.model, res, ParallelPageSize); par.TotalSeconds() > 0 {
			row.EstSpeedup = seqEst.TotalSeconds() / par.TotalSeconds()
		}
		rows = append(rows, row)
	}
	return rows
}

// MeanEstErrPct returns the mean over workers of |predicted - actual| /
// actual in per cent — predicted being the cost-model estimate of the
// worker's initial schedule (Result.WorkerEstSeconds) and actual the
// cost-model time of its measured counters.  It reports false when the
// result carries no predictions or no worker measured a positive cost.
// This is the estimator-fidelity measure shared by TableEstimator,
// TableUpdates and the update benchmark.
func MeanEstErrPct(model costmodel.Model, res *join.Result, pageSize int) (float64, bool) {
	var errSum float64
	var counted int
	for w, predicted := range res.WorkerEstSeconds {
		actual := model.EstimateSnapshot(res.WorkerMetrics[w], pageSize).TotalSeconds()
		if actual <= 0 {
			continue
		}
		errSum += 100 * math.Abs(predicted-actual) / actual
		counted++
	}
	if counted == 0 {
		return 0, false
	}
	return errSum / float64(counted), true
}

// ParallelEstimate converts one ParallelJoin result into an estimated
// parallel execution time under the paper's cost model: the planning cost
// plus the estimate of the slowest worker, which is the critical path of the
// partitioned execution.
func ParallelEstimate(model costmodel.Model, res *join.Result, pageSize int) costmodel.Estimate {
	var worst costmodel.Estimate
	for _, m := range res.WorkerMetrics {
		if est := model.EstimateSnapshot(m, pageSize); est.TotalSeconds() > worst.TotalSeconds() {
			worst = est
		}
	}
	planEst := model.EstimateSnapshot(res.PlanMetrics, pageSize)
	return costmodel.Estimate{
		IOSeconds:  planEst.IOSeconds + worst.IOSeconds,
		CPUSeconds: planEst.CPUSeconds + worst.CPUSeconds,
	}
}

// PrintTableParallel writes the parallel load-balance rows.
func PrintTableParallel(w io.Writer, rows []ParallelRow) {
	writeHeader(w, "Parallel join (SJ4, 4 KByte pages, 128 KB buffer): partition strategies")
	fmt.Fprintf(w, "%-12s %-8s %6s %8s %12s %9s %8s %10s %10s %10s %10s %11s\n",
		"strategy", "workers", "tasks", "pairs", "disk acc", "overhead", "hit rate",
		"task skew", "comp skew", "disk skew", "time skew", "est speedup")
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s %-8d %6d %8d %12d %9.2f %8.2f %10.2f %10.2f %10.2f %10.2f %11.2f\n",
			row.Strategy, row.Workers, row.Tasks, row.Pairs, row.DiskAccesses,
			row.DiskOverhead, row.HitRate, row.TaskSkew, row.CompSkew, row.DiskSkew,
			row.TimeSkew, row.EstSpeedup)
	}
	fmt.Fprintln(w, "(skew = max/mean over the workers, 1.00 is perfectly balanced; time skew ="+
		"\n skew of per-worker estimated execution times, the critical-path balance;"+
		"\n overhead = disk accesses over the sequential join's; est speedup = estimated"+
		"\n sequential time over the parallel critical path, section-5 cost model)")
}

// ---------------------------------------------------------------------------
// Task-estimator fidelity: catalog averages vs sampled statistics.
// ---------------------------------------------------------------------------

// EstimatorWorkers is the worker count of the estimator-fidelity experiment.
const EstimatorWorkers = 8

// EstimatorRow compares the planner's predicted per-worker loads against the
// measured ones for one strategy and one estimator, quantifying how much the
// sampled catalog statistics tighten the schedule cuts over the
// catalog-average subtree model.
type EstimatorRow struct {
	Strategy join.PartitionStrategy
	// Sampled is true for the reservoir-sampled statistics, false for the
	// catalog-average ablation.
	Sampled bool
	Workers int
	// MeanAbsErrPct is the mean over the workers of
	// |predicted - actual| / actual (in percent), where predicted is the
	// cost-model estimate of the worker's schedule and actual the cost-model
	// time of its measured counters.  It measures estimator fidelity at the
	// granularity the partitioner actually cuts at.
	MeanAbsErrPct float64
	// CompSkew, TimeSkew and EstSpeedup show what the fidelity buys: a
	// tighter estimator packs the spatial schedule more evenly.
	CompSkew   float64
	TimeSkew   float64
	HitRate    float64
	EstSpeedup float64
}

// TableEstimator runs the spatial schedule at EstimatorWorkers workers with
// both estimators and reports the est-vs-actual error alongside the
// resulting balance.
func (s *Suite) TableEstimator() []EstimatorRow {
	r, t := s.mainPair(ParallelPageSize)
	seq := s.runJoin(r, t, join.SJ4, ParallelBufferKB, nil)
	seqEst := s.model.EstimateSnapshot(seq.Metrics, ParallelPageSize)
	var rows []EstimatorRow
	for _, sampled := range []bool{false, true} {
		res, err := join.ParallelJoin(r, t, join.ParallelOptions{
			Options: join.Options{
				Method:        join.SJ4,
				BufferBytes:   ParallelBufferKB << 10,
				UsePathBuffer: s.cfg.UsePathBuffer,
				DiscardPairs:  true,
			},
			Workers:             EstimatorWorkers,
			Strategy:            join.PartitionSpatial,
			DisableSampledStats: !sampled,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: estimator table sampled=%v: %v", sampled, err))
		}
		row := EstimatorRow{
			Strategy: join.PartitionSpatial,
			Sampled:  sampled,
			Workers:  len(res.WorkerMetrics),
			CompSkew: res.ComparisonSkew(),
			TimeSkew: res.TimeSkew(s.model, ParallelPageSize),
			HitRate:  res.WorkerBufferHitRate(),
		}
		if err, ok := MeanEstErrPct(s.model, res, ParallelPageSize); ok {
			row.MeanAbsErrPct = err
		}
		if par := ParallelEstimate(s.model, res, ParallelPageSize); par.TotalSeconds() > 0 {
			row.EstSpeedup = seqEst.TotalSeconds() / par.TotalSeconds()
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintTableEstimator writes the estimator-fidelity rows.
func PrintTableEstimator(w io.Writer, rows []EstimatorRow) {
	writeHeader(w, "Task estimator: catalog averages vs sampled statistics (SJ4, 8 workers)")
	fmt.Fprintf(w, "%-12s %-16s %12s %10s %10s %9s %11s\n",
		"strategy", "estimator", "est err %", "comp skew", "time skew", "hit rate", "est speedup")
	for _, row := range rows {
		estimator := "catalog-avg"
		if row.Sampled {
			estimator = "sampled"
		}
		fmt.Fprintf(w, "%-12s %-16s %12.1f %10.2f %10.2f %9.2f %11.2f\n",
			row.Strategy, estimator, row.MeanAbsErrPct, row.CompSkew, row.TimeSkew, row.HitRate, row.EstSpeedup)
	}
	fmt.Fprintln(w, "(est err = mean over workers of |predicted - measured| / measured, cost-model"+
		"\n seconds; the sampled statistics replace the fan-out^level catalog-average model"+
		"\n with per-level populations and leaf extents collected by reservoir sampling)")
}
