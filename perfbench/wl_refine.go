package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/rtree"
)

// refine-lines: the library path.  core.SpatialJoin runs an ID join of the
// paper's test A (streets against rivers and railways, as line objects) at
// scale 0.1 under within-distance, so every call filters with SJ4 and then
// refines the candidates with exact segment geometry.  Both relations are
// built by repeated R*-tree insertion.  Two closed-loop callers share the
// relations, one per CPU of the reference host (a shared 2-vCPU virtual
// machine).  With one caller the second CPU sat idle and the run's speed
// followed the host's steal: over runs alternating between one and two
// callers there, joins per second spread 7-9% with one and 3-6% with two.

const (
	refineScale  = 0.1
	refineEps    = 0.0025
	refineBuffer = 128 << 10
	// refineClients is the number of closed-loop callers.
	refineClients = 2
)

type refineLines struct {
	cfg        config
	rel, sel   *core.Relation
	opts       core.JoinOptions
	nR, nS     int
	loadMS     float64
	candidates int
	exact      answer
	bad        mismatches
	pairs      [refineClients][][2]int32 // each caller's check buffer

	// Traced phase; mu guards the slices below.
	mu        sync.Mutex
	filters   []time.Duration
	counted   []metrics.Snapshot
	refineOps []int64
}

func setupRefineLines(cfg config) (instance, error) {
	test := datagen.PaperTestPairs(refineScale * cfg.scale)[0] // test A
	rItems, sItems := datagen.Generate(test.R), datagen.Generate(test.S)
	// The maps are test A's; the seed sets the order the objects are
	// inserted in, and with it the shape of both R*-trees.  Different maps
	// would change the candidate count by up to a third from seed to seed,
	// drowning any change in the cost of a call.
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(rItems), func(i, j int) { rItems[i], rItems[j] = rItems[j], rItems[i] })
	rng.Shuffle(len(sItems), func(i, j int) { sItems[i], sItems[j] = sItems[j], sItems[i] })
	r := &refineLines{cfg: cfg, nR: len(rItems), nS: len(sItems)}
	opts := rtree.Options{PageSize: pageSize}
	start := time.Now()
	var err error
	if r.rel, err = core.BuildRelation("streets", core.LineObjectsFromItems(rItems), opts, false); err != nil {
		return nil, err
	}
	if r.sel, err = core.BuildRelation("rivers", core.LineObjectsFromItems(sItems), opts, false); err != nil {
		return nil, err
	}
	r.loadMS = ms(time.Since(start))
	r.opts = core.JoinOptions{
		Type: core.IDJoin,
		Filter: join.Options{
			Method:      join.SJ4,
			BufferBytes: refineBuffer,
			Predicate:   join.WithinDistance(refineEps),
		},
	}
	cands := pairsWithin(rItems, sItems, refineEps)
	r.candidates = len(cands)
	segR := map[int32]segment{}
	for _, it := range rItems {
		segR[it.Data] = segmentOf(it.Rect)
	}
	segS := map[int32]segment{}
	for _, it := range sItems {
		segS[it.Data] = segmentOf(it.Rect)
	}
	var exact [][2]int32
	for _, p := range cands {
		if segDist2(segR[p[0]], segS[p[1]]) <= refineEps*refineEps {
			exact = append(exact, p)
		}
	}
	r.exact = answerOf(exact)
	if _, _, err := r.join(0); err != nil {
		return nil, err
	}
	return r, nil
}

// join runs one core.SpatialJoin for caller c and checks it outside its
// latency.
func (r *refineLines) join(c int) (*core.Result, time.Duration, error) {
	start := time.Now()
	res, err := core.SpatialJoin(r.rel, r.sel, r.opts)
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	// The check reuses one buffer, so it adds no garbage of its own to the
	// collector's work between calls.
	pairs := r.pairs[c][:0]
	for _, p := range res.Pairs {
		pairs = append(pairs, [2]int32{p.R, p.S})
	}
	r.pairs[c] = pairs
	sortPairs(pairs)
	count := len(pairs)
	if r.cfg.corrupt != nil {
		count, pairs = r.cfg.corrupt(count, pairs)
	}
	if res.FilterPairs != r.candidates {
		r.bad.add("core.SpatialJoin: %d candidates, want %d", res.FilterPairs, r.candidates)
	}
	if msg := r.exact.diff(count, pairs); msg != "" {
		r.bad.add("core.SpatialJoin: %s", msg)
	}
	return res, d, nil
}

func (r *refineLines) run(ctx context.Context, p *phase) {
	p.closedLoop(ctx, refineClients, func(c int) (time.Duration, error) {
		res, d, err := r.join(c)
		if err != nil || !p.traced {
			return d, err
		}
		r.mu.Lock()
		r.counted = append(r.counted, res.Metrics)
		r.refineOps = append(r.refineOps, res.RefineOps)
		r.mu.Unlock()
		r.filter(p)
		return d, nil
	})
}

// filter times join.Join alone on the relations' trees with the same
// options, interleaved with the full calls; the difference is refinement.
func (r *refineLines) filter(p *phase) {
	start := time.Now()
	_, err := join.Join(r.rel.Tree(), r.sel.Tree(), r.opts.Filter)
	d := time.Since(start)
	if err != nil {
		p.count(1, 1)
		return
	}
	p.count(1, 0)
	r.mu.Lock()
	r.filters = append(r.filters, d)
	r.mu.Unlock()
}

func (r *refineLines) layers(p *phase, m map[string]float64) {
	m["join.filter_ms"] = quantileMS(r.filters, 0.5)
	m["refine.self_ms"] = quantileMS(p.lat, 0.5) - m["join.filter_ms"]
	countedCosts(r.counted, m, &r.bad)
	if len(r.refineOps) > 0 {
		for _, ops := range r.refineOps[1:] {
			if ops != r.refineOps[0] {
				r.bad.add("refinement ops do not repeat: %d, then %d", r.refineOps[0], ops)
				break
			}
		}
		m["refine.ops"] = float64(r.refineOps[0])
	}
	m["refine.survival"] = ratio(float64(r.exact.count), float64(r.candidates))
	m["rtree.load_ms"] = r.loadMS
	m["rtree.load_us_per_item"] = ratio(r.loadMS*1000, float64(r.nR+r.nS))
}

func (r *refineLines) check() error { return r.bad.err() }

func (r *refineLines) params() map[string]any {
	return map[string]any{
		"r_items": r.nR, "s_items": r.nS, "data": "paper test A (streets x rivers&railways) as line objects",
		"scale": refineScale * r.cfg.scale, "join": "ID join", "predicate": "within:0.0025",
		"method": "SJ4", "page_bytes": pageSize, "lru_bytes": refineBuffer,
		"tree_kb": float64((r.rel.Tree().Stats().TotalPages()+r.sel.Tree().Stats().TotalPages())*pageSize) / 1024,
		"build":   "repeated R*-tree insertion", "candidates": r.candidates, "pairs": r.exact.count,
		"loop": "closed", "clients": refineClients,
	}
}

func (r *refineLines) close() error { return nil }
