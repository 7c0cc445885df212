package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/server"
)

// churn: one shard with an open-loop writer beside a closed-loop reader.
// Every 100 ms the writer deletes 200 live rectangles and inserts 200 new
// ones (POST /update, then POST /round); the reader asks for count-only
// parallel intersection joins.  Each reader answer names the epoch it ran
// on, and the writer knows every committed epoch's live set, so the answers
// are checked against the oracle after the measured phase.

const (
	churnR, churnS = 10000, 7500
	churnSide      = 0.02
	churnBatch     = 200 // deletes and inserts per round, each
	churnEvery     = 100 * time.Millisecond
	churnWorkers   = 2
)

var churnBody = []byte(fmt.Sprintf(`{"predicate":"intersects","workers":%d,"discard_pairs":true}`, churnWorkers))

// churnRound is one committed writer round, kept for the oracle.
type churnRound struct {
	epoch   uint64
	deleted []rtree.Item
	added   []rtree.Item
}

// epochCount is one answer to check: the count a join reported for an
// epoch.
type epochCount struct {
	epoch uint64
	count int
	via   string
}

type churn struct {
	cfg    config
	tr     *tracer
	sh     *shard
	client *http.Client
	sItems []rtree.Item
	rng    *rand.Rand
	nR, nS int
	loadMS float64
	first  server.RoundStats
	treeKB float64

	// Writer state: the live set and every committed round since set-up.
	live   []rtree.Item
	nextID int32
	epoch0 uint64
	count0 int
	rounds []churnRound

	mu      sync.Mutex
	answers []epochCount
	lag     []time.Duration // writer send time minus due time
	fresh   []time.Duration // due time until POST /round returned

	// Traced phase.
	wire                      wireLog
	updates, roundsMS, direct []time.Duration
	pages                     []int
	plan, skew, workerHit     []float64
	comparisons, disk, lruHit []float64
	liveMax                   int64
	cacheHits, cacheMiss      int64
	cacheEvict                int64
	c0, c1                    counters
}

func setupChurn(cfg config) (_ instance, err error) {
	c := &churn{cfg: cfg, tr: newTracer(), nR: cfg.scaled(churnR), nS: cfg.scaled(churnS)}
	defer func() {
		if err != nil {
			err = errors.Join(err, c.close())
		}
	}()
	c.rng = rand.New(rand.NewSource(cfg.seed))
	c.live = squares(c.rng, c.nR, churnSide, 0)
	c.sItems = squares(c.rng, c.nS, churnSide, 0)
	c.nextID = int32(c.nR)
	sTree, err := rtree.BulkLoadSTR(rtree.Options{PageSize: pageSize}, c.sItems)
	if err != nil {
		return nil, err
	}
	if c.sh, err = openShard(cfg.workDir, sTree, nil, c.tr); err != nil {
		return nil, err
	}
	load, rs, err := c.sh.load(c.live)
	if err != nil {
		return nil, err
	}
	c.loadMS, c.first = ms(load), rs
	c.treeKB = float64(c.sh.store.Tree().Stats().TotalPages()*pageSize) / 1024
	c.epoch0 = rs.Epoch
	c.count0 = len(pairsWithin(c.live, c.sItems, 0))
	c.client = newClient(nil)
	if _, err := c.read(context.Background(), nil); err != nil {
		return nil, err
	}
	return c, nil
}

// read runs one reader join and keeps its (epoch, count) for the check.
func (c *churn) read(ctx context.Context, tr *tracer) (wireTiming, error) {
	resp, t, err := postJoin(ctx, c.client, c.sh.url, churnBody, tr)
	if err != nil {
		return t, err
	}
	c.mu.Lock()
	c.answers = append(c.answers, epochCount{resp.Epoch, resp.Count, "POST /join"})
	c.mu.Unlock()
	return t, nil
}

func (c *churn) run(ctx context.Context, p *phase) {
	var tr *tracer
	if p.traced {
		tr = c.tr
		c.c0 = c.sh.counters()
	}
	c.mu.Lock()
	c.lag, c.fresh = nil, nil
	c.mu.Unlock()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writer(ctx, p, tr, stop)
	}()
	p.closedLoop(ctx, 1, func(int) (time.Duration, error) {
		t, err := c.read(ctx, tr)
		if err != nil || tr == nil {
			return t.total, err
		}
		c.wire.add(tr, t)
		c.directJoin(ctx, p)
		return t.total, nil
	})
	close(stop)
	<-writerDone
	if p.traced {
		c.c1 = c.sh.counters()
	}
}

// writer sends one batch every churnEvery, on schedule whatever the server
// does: a late batch is sent at once and its freshness counts from when it
// was due.
func (c *churn) writer(ctx context.Context, p *phase, tr *tracer, stop <-chan struct{}) {
	due := time.Now()
	for {
		due = due.Add(churnEvery)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		deleted, added := c.batch()
		ops := make([]server.OpWire, 0, len(deleted)+len(added))
		for _, it := range deleted {
			ops = append(ops, opWire(it, true))
		}
		for _, it := range added {
			ops = append(ops, opWire(it, false))
		}
		// A slice of plain structs always marshals.
		body, _ := json.Marshal(ops)
		cache := c.sh.srv.Cache()
		var upSpan, roundSpan string
		if tr != nil {
			upSpan, roundSpan = tr.newID(), tr.newID()
		}
		if err := post(ctx, c.client, c.sh.url, "/update", body, upSpan, nil); err != nil {
			p.count(2, 2)
			c.restore(deleted)
			continue
		}
		var rs server.RoundStats
		if err := post(ctx, c.client, c.sh.url, "/round", nil, roundSpan, &rs); err != nil {
			p.count(2, 1)
			// The round's effect is unknown; the oracle cannot follow, so
			// every later answer is checked against nothing and fails.
			c.mu.Lock()
			c.rounds = append(c.rounds, churnRound{epoch: 0})
			c.mu.Unlock()
			return
		}
		done := time.Now()
		p.count(2, 0)
		c.mu.Lock()
		c.rounds = append(c.rounds, churnRound{epoch: rs.Epoch, deleted: deleted, added: added})
		c.lag = append(c.lag, sent.Sub(due))
		c.fresh = append(c.fresh, done.Sub(due))
		if tr != nil {
			if s, ok := tr.take(upSpan); ok {
				c.updates = append(c.updates, s.total())
			}
			if s, ok := tr.take(roundSpan); ok {
				c.roundsMS = append(c.roundsMS, s.total())
			}
			c.pages = append(c.pages, rs.Commit.PagesWritten)
			c.liveMax = max(c.liveMax, c.sh.srv.Snapshot().EpochsLive)
			// The epoch that just ended served its readers from this
			// cache; its counts are final once the flip is done.
			if cache != nil {
				st := cache.Stats()
				c.cacheHits += st.Hits
				c.cacheMiss += st.Misses
				c.cacheEvict += st.Evictions
			}
		}
		c.mu.Unlock()
	}
}

func opWire(it rtree.Item, del bool) server.OpWire {
	return server.OpWire{XL: it.Rect.XL, YL: it.Rect.YL, XU: it.Rect.XU, YU: it.Rect.YU, Data: it.Data, Delete: del}
}

// batch picks churnBatch live items to delete and makes churnBatch new ones,
// updating the writer's live set.
func (c *churn) batch() (deleted, added []rtree.Item) {
	n := min(churnBatch, len(c.live))
	for i := 0; i < n; i++ {
		j := c.rng.Intn(len(c.live))
		deleted = append(deleted, c.live[j])
		c.live[j] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
	}
	added = squares(c.rng, churnBatch, churnSide, c.nextID)
	c.nextID += churnBatch
	c.live = append(c.live, added...)
	return deleted, added
}

// restore undoes a batch the server refused before staging it.
func (c *churn) restore(deleted []rtree.Item) {
	c.live = append(c.live[:len(c.live)-churnBatch], deleted...)
}

// directJoin calls Server.Join in process with the reader's request, for
// the server, join and parallel-planning layer metrics.
func (c *churn) directJoin(ctx context.Context, p *phase) {
	start := time.Now()
	resp, err := c.sh.srv.Join(ctx, server.JoinRequest{Predicate: join.Intersects(), Workers: churnWorkers, DiscardPairs: true})
	d := time.Since(start)
	if err != nil {
		p.count(1, 1)
		return
	}
	p.count(1, 0)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.answers = append(c.answers, epochCount{resp.Epoch, resp.Count, "Server.Join"})
	c.direct = append(c.direct, d)
	c.plan = append(c.plan, float64(resp.PlanMetrics.DiskAccesses()))
	c.skew = append(c.skew, resp.TimeSkew(costmodel.Default(), pageSize))
	c.workerHit = append(c.workerHit, resp.WorkerBufferHitRate())
	c.comparisons = append(c.comparisons, float64(resp.Metrics.TotalComparisons()))
	c.disk = append(c.disk, float64(resp.Metrics.DiskAccesses()))
	c.lruHit = append(c.lruHit, lruHitRate(resp.Metrics))
	c.liveMax = max(c.liveMax, c.sh.srv.Snapshot().EpochsLive)
}

func (c *churn) layers(p *phase, m map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m["fresh_p50_ms"] = quantileMS(c.fresh, 0.5)
	m["fresh_p90_ms"] = quantileMS(c.fresh, 0.9)
	m["harness.writer_lag_p90_ms"] = quantileMS(c.lag, 0.9)
	m["server.update_ms"] = quantileMS(c.updates, 0.5)
	m["server.round_ms"] = quantileMS(c.roundsMS, 0.5)
	m["server.join_ms"] = quantileMS(c.direct, 0.5)
	c.wire.report(m, 0)
	m["join.plan_disk_accesses"] = median(c.plan)
	m["join.time_skew"] = median(c.skew)
	m["join.worker_hit_rate"] = median(c.workerHit)
	m["join.comparisons"] = median(c.comparisons)
	m["join.disk_accesses"] = median(c.disk)
	m["join.lru_hit_rate"] = median(c.lruHit)
	loadMetrics(m, c.loadMS, c.nR, c.first)
	var pages []float64
	for _, n := range c.pages {
		pages = append(pages, float64(n))
	}
	m["rtree.commit_pages"] = median(pages)
	serverDeltas(m, []counters{c.c0}, []counters{c.c1}, len(p.lat)+len(c.direct))
	// Every epoch has its own page cache: sum the caches of the epochs the
	// phase retired instead of diffing one cache across flips.
	m["buffer.pagecache_hit_rate"] = ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMiss))
	m["buffer.pagecache_evictions"] = float64(c.cacheEvict)
	m["server.epochs_live_max"] = float64(c.liveMax)
}

// writerLagP90 reports how late the open-loop writer ran in the last phase.
func (c *churn) writerLagP90() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return quantileMS(c.lag, 0.9)
}

// check replays the committed rounds to get every epoch's pair count and
// compares each answer with the count of the epoch it reports.
func (c *churn) check() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := map[uint64]int{c.epoch0: c.count0}
	count := c.count0
	for _, r := range c.rounds {
		if r.epoch == 0 {
			break
		}
		count += len(pairsWithin(r.added, c.sItems, 0)) - len(pairsWithin(r.deleted, c.sItems, 0))
		want[r.epoch] = count
	}
	var bad mismatches
	for _, a := range c.answers {
		got := a.count
		if c.cfg.corrupt != nil {
			got, _ = c.cfg.corrupt(got, nil)
		}
		w, ok := want[a.epoch]
		switch {
		case !ok:
			bad.add("%s: epoch %d was never committed by the writer", a.via, a.epoch)
		case got != w:
			bad.add("%s: epoch %d count %d, want %d", a.via, a.epoch, got, w)
		}
	}
	return bad.err()
}

func (c *churn) params() map[string]any {
	return map[string]any{
		"r_items": c.nR, "s_items": c.nS, "side": churnSide,
		"predicate": "intersects", "method": "SJ4", "reader_workers": churnWorkers,
		"page_bytes": pageSize, "page_cache_bytes": cacheBytes, "r_tree_kb": c.treeKB,
		"flush":  "one fsync per group commit (storage.Pager default)",
		"writer": fmt.Sprintf("open loop: %d deletes + %d inserts every %v", churnBatch, churnBatch, churnEvery),
		"reader": "closed loop, 1 client, discard_pairs",
	}
}

func (c *churn) close() error {
	if c.client != nil {
		closeClient(c.client)
	}
	if c.sh == nil {
		return nil
	}
	return c.sh.close()
}
