package main

import (
	"bytes"
	"encoding/json"
)

// Metric is one named measurement the benchmark reports.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names one traffic mix and why it is part of the benchmark.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 15

var workloads = []Workload{
	{"intersect-wire", "120k-pair intersection over POST /join, 2 clients: JSON encode and decode dominate, the warm page cache keeps the filter cheap; counted comparisons and disk accesses repeat exactly"},
	{"knn-sharded", "knn:4 through router.Join over two Hilbert shards: the kNN filter, fan-out, stream checks and merge dominate; intersect-wire bypasses both; counted costs repeat exactly"},
	{"churn", "200 deletes and 200 inserts every 100 ms beside count-only parallel joins: commit, WAL fsync, epoch flips and cold per-epoch page caches dominate, the wire barely matters"},
	{"refine-lines", "core.SpatialJoin ID join within:0.0025 on test-A lines at scale 0.1: refinement is half of each call, R*-tree insertion builds dominate set-up; counted costs repeat exactly"},
}

// endToEnd are the metrics a user of the join service sees; every workload
// reports all of them from an untraced run.  The bounds are the widest
// allowed: on a shared 2-vCPU virtual machine (Xeon, go1.24) two sets of ten
// runs of the same code differed by up to 16% in median, with the run
// records' steal share and reference-loop rate moving with them.  The p90
// latency moved further still (its quartile spread reached 26% over ten
// runs when the hypervisor stole 6-7% of the CPU in some of them), so it is
// reported without a bound, in the traced run.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"join_p50_ms", "ms", "lower", 0.25},
	{"joins_per_s", "1/s", "higher", 0.25},
	{"ok_frac", "ratio", "higher", 0.02},
	{"rss_p50_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics.  Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []Metric{
	{Name: "join_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "ttfb_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fresh_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "rtree.load_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.load_us_per_item", Unit: "us", Better: "lower"},
	{Name: "rtree.commit_pages", Unit: "count", Better: "lower"},
	{Name: "server.join_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_pre_ms", Unit: "ms", Better: "lower"},
	{Name: "server.update_ms", Unit: "ms", Better: "lower"},
	{Name: "server.round_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.retries", Unit: "count", Better: "lower"},
	{Name: "server.epochs_live_max", Unit: "count", Better: "lower"},
	{Name: "wire.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.bytes_per_pair", Unit: "B", Better: "lower"},
	{Name: "join.comparisons", Unit: "count", Better: "lower"},
	{Name: "join.disk_accesses", Unit: "count", Better: "lower"},
	{Name: "join.lru_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "join.plan_disk_accesses", Unit: "count", Better: "lower"},
	{Name: "join.time_skew", Unit: "ratio", Better: "lower"},
	{Name: "join.worker_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "join.filter_ms", Unit: "ms", Better: "lower"},
	{Name: "refine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "refine.ops", Unit: "count", Better: "lower"},
	{Name: "refine.survival", Unit: "ratio", Better: "higher"},
	{Name: "buffer.pagecache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "buffer.pagecache_evictions", Unit: "count", Better: "lower"},
	{Name: "storage.reads_per_join", Unit: "count", Better: "lower"},
	{Name: "storage.read_us", Unit: "us", Better: "lower"},
	{Name: "storage.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "storage.checkpoints", Unit: "count", Better: "lower"},
	{Name: "storage.read_retries", Unit: "count", Better: "lower"},
	{Name: "router.join_ms", Unit: "ms", Better: "lower"},
	{Name: "router.shard_wall_max_ms", Unit: "ms", Better: "lower"},
	{Name: "router.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "router.shard_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "router.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "router.extra_attempts", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_mb_per_join", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.writer_lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "harness.cpu_steal_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.host_mops", Unit: "Mop/s", Better: "higher"},
	{Name: "harness.traced_join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.unexplained_ms", Unit: "ms", Better: "lower"},
}

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot disagree on a name, unit or bound.
func benchmarkJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	// Encoding a struct of strings and numbers cannot fail.
	_ = enc.Encode(benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	})
	return buf.Bytes()
}

func metricByName(name string) (Metric, bool) {
	for _, list := range [][]Metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
