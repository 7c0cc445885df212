package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/zorder"
)

// knn-sharded: router.Join over two Hilbert-range shards, R split by centre
// key and S replicated, one closed-loop client asking for every R item's
// four nearest S items.

const (
	knnR, knnS = 10000, 7500
	knnSide    = 0.02
	knnK       = 4
	knnShards  = 2
)

// routerJoin is one router.Join as the traced phase saw it.
type routerJoin struct {
	total    time.Duration
	outcomes []router.ShardOutcome
	calls    []*shardCall
	pairs    int
}

type knnSharded struct {
	cfg    config
	tr     *tracer
	shards []*shard
	names  map[string]string // shard URL host -> shard name
	rt     *router.Router
	client *http.Client
	want   answer
	nR, nS int
	loadMS float64
	rounds []server.RoundStats
	treeKB float64
	bad    mismatches

	// Traced phase.
	joins   []routerJoin
	direct  []time.Duration
	counted []metrics.Snapshot
	c0, c1  []counters
}

func setupKNNSharded(cfg config) (_ instance, err error) {
	k := &knnSharded{cfg: cfg, tr: newTracer(), nR: cfg.scaled(knnR), nS: cfg.scaled(knnS), names: map[string]string{}}
	defer func() {
		if err != nil {
			err = errors.Join(err, k.close())
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed))
	rItems := squares(rng, k.nR, knnSide, 0)
	sItems := squares(rng, k.nS, knnSide, 0)
	ranges := zorder.UniformKeyRanges(knnShards)
	parts := make([][]rtree.Item, knnShards)
	for _, it := range rItems {
		key := zorder.HilbertKey(it.Rect.Center(), server.UnitWorld)
		for i, r := range ranges {
			if r.Contains(key) {
				parts[i] = append(parts[i], it)
			}
		}
	}
	var shards []router.Shard
	for i := range ranges {
		// Every shard holds its own copy of S, as separate processes would.
		sTree, err := rtree.BulkLoadSTR(rtree.Options{PageSize: pageSize}, sItems)
		if err != nil {
			return nil, err
		}
		sh, err := openShard(cfg.workDir, sTree, &ranges[i], k.tr)
		if err != nil {
			return nil, err
		}
		k.shards = append(k.shards, sh)
		load, rs, err := sh.load(parts[i])
		if err != nil {
			return nil, err
		}
		k.loadMS += ms(load)
		k.rounds = append(k.rounds, rs)
		k.treeKB += float64(sh.store.Tree().Stats().TotalPages()*pageSize) / 1024
		name := fmt.Sprintf("shard%d", i)
		u, err := url.Parse(sh.url)
		if err != nil {
			return nil, err
		}
		k.names[u.Host] = name
		shards = append(shards, router.Shard{Name: name, URL: sh.url, Range: ranges[i]})
	}
	k.client = newClient(k.tr)
	if k.rt, err = router.New(router.Config{Shards: shards, Client: k.client}); err != nil {
		return nil, err
	}
	k.want = answerOf(knnOracle(rItems, sItems, knnK))
	if _, err := k.join(context.Background()); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *knnSharded) join(ctx context.Context) (*router.JoinResult, error) {
	res, err := k.rt.Join(ctx, router.JoinRequest{Predicate: fmt.Sprintf("knn:%d", knnK)})
	if err != nil {
		return nil, err
	}
	count, pairs := res.Count, res.Pairs
	if k.cfg.corrupt != nil {
		count, pairs = k.cfg.corrupt(count, pairs)
	}
	if msg := k.want.diff(count, pairs); msg != "" {
		k.bad.add("router.Join: %s", msg)
	}
	return res, nil
}

func (k *knnSharded) run(ctx context.Context, p *phase) {
	if p.traced {
		k.c0 = k.counters()
	}
	p.closedLoop(ctx, 1, func(int) (time.Duration, error) {
		jctx := ctx
		var log *callLog
		if p.traced {
			log = &callLog{}
			jctx = withCallLog(ctx, log)
		}
		start := time.Now()
		res, err := k.join(jctx)
		total := time.Since(start)
		if err != nil || !p.traced {
			return total, err
		}
		k.joins = append(k.joins, routerJoin{total: total, outcomes: res.Shards, calls: log.calls, pairs: res.Count})
		k.directJoins(ctx, p)
		return total, nil
	})
	if p.traced {
		k.c1 = k.counters()
	}
}

func (k *knnSharded) counters() []counters {
	var cs []counters
	for _, sh := range k.shards {
		cs = append(cs, sh.counters())
	}
	return cs
}

// directJoins calls Server.Join in process on every shard with the
// workload's request, interleaved with the routed joins.
func (k *knnSharded) directJoins(ctx context.Context, p *phase) {
	var sum metrics.Snapshot
	for _, sh := range k.shards {
		start := time.Now()
		resp, err := sh.srv.Join(ctx, server.JoinRequest{Predicate: join.NearestNeighbors(knnK)})
		d := time.Since(start)
		if err != nil {
			p.count(1, 1)
			return
		}
		p.count(1, 0)
		k.direct = append(k.direct, d)
		sum = addSnapshots(sum, resp.Metrics)
	}
	k.counted = append(k.counted, sum)
}

func (k *knnSharded) layers(p *phase, m map[string]float64) {
	var wallMax, merge, decode, pre, enc, ttfb []time.Duration
	var skew []float64
	var bytes, pairs float64
	extra := 0
	for _, j := range k.joins {
		var maxWall, sumWall time.Duration
		walls := map[string]time.Duration{}
		for _, o := range j.outcomes {
			maxWall = max(maxWall, o.Wall)
			sumWall += o.Wall
			walls[o.Shard] = o.Wall
			extra += o.Attempts - 1
		}
		wallMax = append(wallMax, maxWall)
		merge = append(merge, j.total-maxWall)
		skew = append(skew, ratio(float64(maxWall)*float64(len(j.outcomes)), float64(sumWall)))
		pairs += float64(j.pairs)
		for _, c := range j.calls {
			span, ok := k.tr.take(c.id)
			if !ok || c.path != "/join" {
				continue
			}
			pre = append(pre, span.pre())
			enc = append(enc, span.encode())
			ttfb = append(ttfb, c.headers.Sub(c.sent))
			decode = append(decode, walls[k.names[c.host]]-span.total())
			bytes += float64(c.bytes.Load())
		}
	}
	m["router.join_ms"] = quantileMS(p.lat, 0.5)
	m["router.shard_wall_max_ms"] = quantileMS(wallMax, 0.5)
	m["router.merge_ms"] = quantileMS(merge, 0.5)
	m["router.shard_decode_ms"] = quantileMS(decode, 0.5)
	m["router.shard_skew"] = median(skew)
	m["router.extra_attempts"] = float64(extra)
	m["harness.unexplained_ms"] = m["router.join_ms"] - (m["router.shard_wall_max_ms"] + m["router.merge_ms"])
	m["server.handler_pre_ms"] = quantileMS(pre, 0.5)
	m["wire.encode_ms"] = quantileMS(enc, 0.5)
	m["ttfb_p50_ms"] = quantileMS(ttfb, 0.5)
	m["wire.bytes_per_pair"] = ratio(bytes, pairs)
	m["server.join_ms"] = quantileMS(k.direct, 0.5)
	countedCosts(k.counted, m, &k.bad)
	var written int
	for _, rs := range k.rounds {
		written += rs.Commit.PagesWritten
	}
	loadMetrics(m, k.loadMS, k.nR, server.RoundStats{Commit: rtree.CommitStats{PagesWritten: written}})
	serverDeltas(m, k.c0, k.c1, len(p.lat)*knnShards+len(k.direct))
}

func (k *knnSharded) check() error { return k.bad.err() }

func (k *knnSharded) params() map[string]any {
	return map[string]any{
		"r_items": k.nR, "s_items": k.nS, "side": knnSide, "pairs": k.want.count,
		"predicate": fmt.Sprintf("knn:%d", knnK), "method": "SJ4", "shards": knnShards,
		"placement": "R by centre Hilbert key, S replicated", "page_bytes": pageSize,
		"page_cache_bytes_per_shard": cacheBytes, "r_tree_kb": k.treeKB,
		"flush": "one fsync per group commit (storage.Pager default)",
		"loop":  "closed", "clients": 1,
	}
}

func (k *knnSharded) close() error {
	if k.client != nil {
		closeClient(k.client)
	}
	var errs []error
	for _, sh := range k.shards {
		errs = append(errs, sh.close())
	}
	return errors.Join(errs...)
}
