package main

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/server"
)

// intersect-wire: one shard, R loaded through Server.Update and
// Server.Round, S bulk-loaded, two closed-loop clients asking for every
// intersecting pair over POST /join.

const (
	wireR, wireS = 10000, 7500
	wireSide     = 0.02
	wireClients  = 2
)

var wireBody = []byte(`{"predicate":"intersects"}`)

type intersectWire struct {
	cfg    config
	tr     *tracer
	sh     *shard
	client *http.Client
	want   answer
	nR, nS int
	loadMS float64
	round  server.RoundStats
	treeKB float64
	bad    mismatches

	// Traced phase.
	wire    wireLog
	mu      sync.Mutex
	direct  []time.Duration
	counted []metrics.Snapshot
	c0, c1  counters
}

func setupIntersectWire(cfg config) (instance, error) {
	w := &intersectWire{cfg: cfg, tr: newTracer(), nR: cfg.scaled(wireR), nS: cfg.scaled(wireS)}
	rng := rand.New(rand.NewSource(cfg.seed))
	rItems := squares(rng, w.nR, wireSide, 0)
	sItems := squares(rng, w.nS, wireSide, 0)
	sTree, err := rtree.BulkLoadSTR(rtree.Options{PageSize: pageSize}, sItems)
	if err != nil {
		return nil, err
	}
	if w.sh, err = openShard(cfg.workDir, sTree, nil, w.tr); err != nil {
		return nil, err
	}
	load, rs, err := w.sh.load(rItems)
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	w.loadMS, w.round = ms(load), rs
	w.treeKB = float64(w.sh.store.Tree().Stats().TotalPages()*pageSize) / 1024
	w.want = answerOf(pairsWithin(rItems, sItems, 0))
	w.client = newClient(nil)
	// Warm the connection pool and the epoch's page cache.
	for i := 0; i < wireClients; i++ {
		if _, err := w.join(context.Background(), nil); err != nil {
			return nil, errors.Join(err, w.close())
		}
	}
	return w, nil
}

// join runs one POST /join and checks the answer outside its latency.
func (w *intersectWire) join(ctx context.Context, tr *tracer) (wireTiming, error) {
	resp, t, err := postJoin(ctx, w.client, w.sh.url, wireBody, tr)
	if err != nil {
		return t, err
	}
	count, pairs := resp.Count, resp.Pairs
	if w.cfg.corrupt != nil {
		count, pairs = w.cfg.corrupt(count, pairs)
	}
	if msg := w.want.diff(count, pairs); msg != "" {
		w.bad.add("POST /join: %s", msg)
	}
	return t, nil
}

func (w *intersectWire) run(ctx context.Context, p *phase) {
	var tr *tracer
	if p.traced {
		tr = w.tr
		w.c0 = w.sh.counters()
	}
	p.closedLoop(ctx, wireClients, func(client int) (time.Duration, error) {
		t, err := w.join(ctx, tr)
		if err != nil || tr == nil {
			return t.total, err
		}
		w.wire.add(tr, t)
		if client == 0 {
			w.directJoin(ctx, p)
		}
		return t.total, nil
	})
	if p.traced {
		w.c1 = w.sh.counters()
	}
}

// directJoin calls Server.Join in process with the workload's request,
// interleaved with the HTTP joins, for the server and join layer metrics.
func (w *intersectWire) directJoin(ctx context.Context, p *phase) {
	start := time.Now()
	resp, err := w.sh.srv.Join(ctx, server.JoinRequest{Predicate: join.Intersects()})
	d := time.Since(start)
	if err != nil {
		p.count(1, 1)
		return
	}
	p.count(1, 0)
	if resp.Count != w.want.count {
		w.bad.add("Server.Join: count %d, want %d", resp.Count, w.want.count)
	}
	w.mu.Lock()
	w.direct = append(w.direct, d)
	w.counted = append(w.counted, resp.Metrics)
	w.mu.Unlock()
}

func (w *intersectWire) layers(p *phase, m map[string]float64) {
	w.wire.report(m, w.want.count)
	m["harness.unexplained_ms"] = quantileMS(p.lat, 0.5) -
		(m["server.handler_pre_ms"] + m["wire.encode_ms"] + m["wire.transfer_ms"] + m["wire.decode_ms"])
	m["server.join_ms"] = quantileMS(w.direct, 0.5)
	countedCosts(w.counted, m, &w.bad)
	loadMetrics(m, w.loadMS, w.nR, w.round)
	serverDeltas(m, []counters{w.c0}, []counters{w.c1}, len(p.lat)+len(w.direct))
}

func (w *intersectWire) check() error { return w.bad.err() }

func (w *intersectWire) params() map[string]any {
	return map[string]any{
		"r_items": w.nR, "s_items": w.nS, "side": wireSide, "pairs": w.want.count,
		"predicate": "intersects", "method": "SJ4", "page_bytes": pageSize,
		"page_cache_bytes": cacheBytes, "r_tree_kb": w.treeKB,
		"flush": "one fsync per group commit (storage.Pager default)",
		"loop":  "closed", "clients": wireClients,
	}
}

func (w *intersectWire) close() error {
	if w.client != nil {
		closeClient(w.client)
	}
	if w.sh == nil {
		return nil
	}
	return w.sh.close()
}
