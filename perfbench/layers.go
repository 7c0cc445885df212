package main

import (
	"repro/internal/metrics"
	"repro/internal/server"
)

// countedCosts reports the paper's counted costs of the direct joins and
// checks that they repeat exactly from call to call: on an unchanged
// snapshot the filter's comparisons and page accesses are deterministic, so
// a difference is a defect of the program, not noise.
func countedCosts(snaps []metrics.Snapshot, m map[string]float64, bad *mismatches) {
	if len(snaps) == 0 {
		return
	}
	first := snaps[0]
	for _, s := range snaps[1:] {
		if s.TotalComparisons() != first.TotalComparisons() || s.DiskAccesses() != first.DiskAccesses() {
			bad.add("counted costs do not repeat: %d comparisons and %d disk accesses, then %d and %d",
				first.TotalComparisons(), first.DiskAccesses(), s.TotalComparisons(), s.DiskAccesses())
			break
		}
	}
	m["join.comparisons"] = float64(first.TotalComparisons())
	m["join.disk_accesses"] = float64(first.DiskAccesses())
	m["join.lru_hit_rate"] = lruHitRate(first)
}

// lruHitRate is the share of node accesses served by the counted buffers.
func lruHitRate(s metrics.Snapshot) float64 {
	hits := float64(s.BufferHits + s.PathHits)
	return ratio(hits, hits+float64(s.DiskReads))
}

func addSnapshots(a, b metrics.Snapshot) metrics.Snapshot {
	return metrics.Snapshot{
		Comparisons:     a.Comparisons + b.Comparisons,
		SortComparisons: a.SortComparisons + b.SortComparisons,
		DiskReads:       a.DiskReads + b.DiskReads,
		DiskWrites:      a.DiskWrites + b.DiskWrites,
		BufferHits:      a.BufferHits + b.BufferHits,
		PathHits:        a.PathHits + b.PathHits,
	}
}

// loadMetrics reports the initial load of R through Server.Update and
// Server.Round.
func loadMetrics(m map[string]float64, loadMS float64, items int, rs server.RoundStats) {
	m["rtree.load_ms"] = loadMS
	m["rtree.load_us_per_item"] = ratio(loadMS*1000, float64(items))
	m["rtree.commit_pages"] = float64(rs.Commit.PagesWritten)
}

// serverDeltas reports the storage, page-cache and admission counters that
// moved between c0 and c1, summed over the shards, for a phase that ran
// joins joins.
func serverDeltas(m map[string]float64, c0, c1 []counters, joins int) {
	var d counters
	var liveMax int64
	for i := range c0 {
		a, b := c0[i], c1[i]
		d.pager.Reads += b.pager.Reads - a.pager.Reads
		d.pager.ReadNanos += b.pager.ReadNanos - a.pager.ReadNanos
		d.pager.ReadRetries += b.pager.ReadRetries - a.pager.ReadRetries
		d.pager.Commits += b.pager.Commits - a.pager.Commits
		d.pager.SyncNanos += b.pager.SyncNanos - a.pager.SyncNanos
		d.pager.CommitNanos += b.pager.CommitNanos - a.pager.CommitNanos
		d.pager.WALBytes += b.pager.WALBytes - a.pager.WALBytes
		d.pager.Checkpoints += b.pager.Checkpoints - a.pager.Checkpoints
		d.cache.Hits += b.cache.Hits - a.cache.Hits
		d.cache.Misses += b.cache.Misses - a.cache.Misses
		d.cache.Evictions += b.cache.Evictions - a.cache.Evictions
		d.srv.Admitted += b.srv.Admitted - a.srv.Admitted
		d.srv.Shed += b.srv.Shed - a.srv.Shed
		d.srv.Retries += b.srv.Retries - a.srv.Retries
		d.srv.OpsApplied += b.srv.OpsApplied - a.srv.OpsApplied
		liveMax = max(liveMax, b.srv.EpochsLive)
	}
	m["storage.reads_per_join"] = ratio(float64(d.pager.Reads), float64(joins))
	m["storage.read_us"] = ratio(float64(d.pager.ReadNanos)/1e3, float64(d.pager.Reads))
	m["storage.read_retries"] = float64(d.pager.ReadRetries)
	m["storage.sync_ms"] = ratio(float64(d.pager.SyncNanos)/1e6, float64(d.pager.Commits))
	m["storage.commit_ms"] = ratio(float64(d.pager.CommitNanos)/1e6, float64(d.pager.Commits))
	m["storage.wal_bytes_per_op"] = ratio(float64(d.pager.WALBytes), float64(d.srv.OpsApplied))
	m["storage.checkpoints"] = float64(d.pager.Checkpoints)
	m["buffer.pagecache_hit_rate"] = ratio(float64(d.cache.Hits), float64(d.cache.Hits+d.cache.Misses))
	m["buffer.pagecache_evictions"] = float64(d.cache.Evictions)
	m["server.shed_frac"] = ratio(float64(d.srv.Shed), float64(d.srv.Admitted+d.srv.Shed))
	m["server.retries"] = float64(d.srv.Retries)
	m["server.epochs_live_max"] = float64(liveMax)
}
