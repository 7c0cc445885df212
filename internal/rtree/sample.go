package rtree

import (
	"sync"

	"repro/internal/costmodel"
	"repro/internal/storage"
)

// Catalog statistics: a bounded reservoir sample of per-node shape summaries
// for every level, plus exact per-level node and entry counts.
//
// The statistics are maintained *incrementally*: every mutation path —
// insert, forced re-insertion, split, delete, CondenseTree, bulk load and
// persistence load — updates the per-level counters (a few integer adds) and
// the reservoirs (on node creation and re-shaping), so CatalogStats never has
// to walk the tree.  The exact counters track the true per-level populations
// bit-exactly (maintain_test.go pins this against from-scratch walks after
// randomized mutation sequences); the sampled shape averages are refreshed
// whenever a node is created, split, re-inserted from, deleted from, or fed
// a long hint run (every hintResampleEvery-th buffered append).
// Plain-insert appends between splits are the one deliberate refresh gap:
// they are the construction hot loop, and a split refreshes both halves
// every ~M/2 of them.
//
// A from-scratch sampling walk rebuilds the maintained state only when a
// persisted tree is loaded.
//
// Collection is read-only observation: it never changes the tree shape, so
// the structural parity goldens are unaffected.

// SampleReservoirSize bounds the number of node summaries kept per level.
// 64 nodes capture the mean fan-out and entry extents of even very skewed
// levels while keeping the catalog a few KBytes regardless of tree size.
const SampleReservoirSize = 64

// catalogSeed seeds the deterministic reservoir RNG.  A fixed seed makes the
// sample — and every schedule derived from the statistics — a reproducible
// function of the tree's construction sequence alone.
const catalogSeed = 0x9E3779B97F4A7C15

// nodeSample is the shape summary of one sampled node.  The page identifier
// keys in-place refreshes (a re-split node replaces its stale sample) and
// removal of dissolved nodes, so the reservoir only ever describes live
// nodes.
type nodeSample struct {
	id      storage.PageID
	fanout  int
	width   float64 // mean entry width
	height  float64 // mean entry height
	density float64 // sum of entry areas / node MBR area
}

// levelSampler accumulates one level's exact counts and reservoir.  nodes and
// entries are the exact live populations (maintained by the mutation hooks);
// observed counts reservoir observations, which only grows — Algorithm R's
// stream position must not rewind when nodes are dissolved.
type levelSampler struct {
	nodes    int64
	entries  int64
	observed int64
	res      []nodeSample
}

// catalogSampler samples a whole tree, one reservoir per level.  It is both
// the scratch state of the load-time sampling walk and the persistent
// maintained state of a live tree.
type catalogSampler struct {
	rng    uint64
	levels []levelSampler
}

func newCatalogSampler() *catalogSampler {
	return &catalogSampler{rng: catalogSeed}
}

// next is a splitmix64 step: fast, deterministic and well-distributed, which
// is all a reservoir index needs.
func (cs *catalogSampler) next() uint64 {
	cs.rng += 0x9E3779B97F4A7C15
	z := cs.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// level returns the sampler of one level, growing the slice as the tree does.
func (cs *catalogSampler) level(l int) *levelSampler {
	for len(cs.levels) <= l {
		cs.levels = append(cs.levels, levelSampler{})
	}
	return &cs.levels[l]
}

// sample feeds one node's current shape into its level's reservoir with an
// Algorithm R admission step.  It is called exactly once per node — at
// creation (addNode) or when a walk first visits it — so `observed` counts
// nodes, not mutations, and every node of a level gets exactly one admission
// lottery.  A node already present (matched by page identifier) is refreshed
// in place instead; on a pure walk every node is new, which reproduces the
// PR-4 walk-sampling reservoir bit-exactly.
func (cs *catalogSampler) sample(n *Node) {
	if len(n.Entries) == 0 {
		return
	}
	ls := cs.level(n.Level)
	for i := range ls.res {
		if ls.res[i].id == n.ID {
			ls.res[i] = summarize(n)
			return
		}
	}
	ls.observed++
	if len(ls.res) < SampleReservoirSize {
		ls.res = append(ls.res, summarize(n))
		return
	}
	if j := cs.next() % uint64(ls.observed); j < SampleReservoirSize {
		ls.res[j] = summarize(n)
	}
}

// refresh re-summarizes a node that is already in its level's reservoir and
// leaves absent nodes alone: admission happens once, at creation, so churn
// hot spots cannot buy extra admission lotteries and the reservoir stays a
// (refreshed) uniform sample over the nodes ever created at the level.  The
// no-op case costs only the id scan, which keeps refresh cheap enough for
// per-mutation call sites.
func (cs *catalogSampler) refresh(n *Node) {
	if len(n.Entries) == 0 || n.Level >= len(cs.levels) {
		return
	}
	ls := &cs.levels[n.Level]
	for i := range ls.res {
		if ls.res[i].id == n.ID {
			ls.res[i] = summarize(n)
			return
		}
	}
}

// addNode records a newly created node: the exact count, and a reservoir
// observation if the node already carries entries (a new root, a split
// sibling).  Empty nodes (a fresh tree root) are counted but not sampled.
func (cs *catalogSampler) addNode(n *Node) {
	cs.level(n.Level).nodes++
	cs.sample(n)
}

// removeNode records a dissolved node and drops its reservoir sample, if any,
// so the reservoir never describes dead nodes.
func (cs *catalogSampler) removeNode(n *Node) {
	ls := cs.level(n.Level)
	ls.nodes--
	for i := range ls.res {
		if ls.res[i].id == n.ID {
			ls.res[i] = ls.res[len(ls.res)-1]
			ls.res = ls.res[:len(ls.res)-1]
			return
		}
	}
}

// addEntries adjusts one level's exact entry count.
func (cs *catalogSampler) addEntries(level, delta int) {
	cs.level(level).entries += int64(delta)
}

// observe feeds one node of a from-scratch walk: exact counts plus a
// reservoir observation.  Empty nodes (an empty tree root) are skipped.
func (cs *catalogSampler) observe(n *Node) {
	if len(n.Entries) == 0 {
		return
	}
	ls := cs.level(n.Level)
	ls.nodes++
	ls.entries += int64(len(n.Entries))
	cs.sample(n)
}

// observeLevel feeds every node of one freshly packed bulk-load level.
func (cs *catalogSampler) observeLevel(nodes []*Node) {
	for _, n := range nodes {
		cs.observe(n)
	}
}

// summarize computes the shape summary of one node.
func summarize(n *Node) nodeSample {
	var sumW, sumH, sumA float64
	for _, e := range n.Entries {
		sumW += e.Rect.Width()
		sumH += e.Rect.Height()
		sumA += e.Rect.Area()
	}
	cnt := float64(len(n.Entries))
	s := nodeSample{
		id:     n.ID,
		fanout: len(n.Entries),
		width:  sumW / cnt,
		height: sumH / cnt,
	}
	if mbrArea := n.MBR().Area(); mbrArea > 0 {
		s.density = sumA / mbrArea
	} else {
		// A degenerate MBR (points or a line) is fully covered by its entries.
		s.density = 1
	}
	return s
}

// catalog assembles the sampled levels into a costmodel.Catalog.  Maintained
// state can carry trailing levels the tree has since shrunk away from; they
// are trimmed to the current height (a from-scratch walk never produces
// them).
func (cs *catalogSampler) catalog(pageSize, height int) costmodel.Catalog {
	cat := costmodel.Catalog{PageSize: pageSize, Height: height}
	levels := cs.levels
	if len(levels) > height {
		levels = levels[:height]
	}
	for l, ls := range levels {
		stat := costmodel.LevelStats{
			Level:      l,
			Nodes:      ls.nodes,
			Entries:    ls.entries,
			SampleSize: len(ls.res),
		}
		if n := float64(len(ls.res)); n > 0 {
			var fan, w, h, d float64
			for _, s := range ls.res {
				fan += float64(s.fanout)
				w += s.width
				h += s.height
				d += s.density
			}
			stat.AvgFanout = fan / n
			stat.AvgEntryWidth = w / n
			stat.AvgEntryHeight = h / n
			stat.AvgDensity = d / n
		}
		cat.Levels = append(cat.Levels, stat)
	}
	return cat
}

// catalogCache is the tree-resident statistics state: the incrementally
// maintained sampler plus the assembled costmodel.Catalog.  The mutex only
// guards the CatalogStats read path: concurrent read-only users of a
// finished tree (the documented concurrency contract) may all call
// CatalogStats, and the first one in assembles while the rest wait.
type catalogCache struct {
	mu    sync.Mutex
	valid bool // the assembled cat below matches the maintained counters
	cat   costmodel.Catalog

	maint catalogSampler // incrementally maintained statistics
}

// initCatalogMaintenance starts maintained statistics on an empty tree;
// New calls it before the first node is counted.
func (t *Tree) initCatalogMaintenance() {
	t.catalog.maint = catalogSampler{rng: catalogSeed}
}

// invalidateCatalog marks the assembled catalog stale; every mutation calls
// it (a single store, negligible against the tree update).  The maintained
// counters stay valid — the mutation hooks have already updated them — so the
// next CatalogStats reassembles without walking the tree.
func (t *Tree) invalidateCatalog() {
	t.catalog.valid = false
}

// setCatalog installs freshly collected statistics as both the maintained
// state and the assembled catalog.  The bulk loaders call it with the sampler
// they fed during packing; the persistence loader calls it with a walk
// sampler.
func (t *Tree) setCatalog(cs *catalogSampler) {
	t.catalog.maint = *cs
	t.catalog.cat = cs.catalog(t.opts.PageSize, t.height)
	t.catalog.valid = true
}

// adoptWalkSampler rebuilds the maintained state with one from-scratch
// sampling walk.  The walk skips empty nodes; the only node that can be empty
// is the root of an empty tree, which the maintained counters must still own
// so that subsequent mutation deltas land on the right base.
func (t *Tree) adoptWalkSampler() {
	cs := newCatalogSampler()
	t.walk(t.root, cs.observe)
	if len(t.root.Entries) == 0 {
		cs.level(t.root.Level).nodes++
	}
	t.setCatalog(cs)
}

// CatalogStats returns the tree's sampled catalog statistics.  The exact
// per-level node and entry populations are maintained incrementally by every
// mutation path, so after any insert/delete/bulk-load sequence the catalog is
// assembled from O(height) counters without touching the tree's pages.  The
// sampling RNG is deterministically seeded, so
// identical construction sequences always yield identical statistics (and
// therefore identical schedules downstream).
func (t *Tree) CatalogStats() costmodel.Catalog {
	t.catalog.mu.Lock()
	defer t.catalog.mu.Unlock()
	if t.catalog.valid {
		return t.catalog.cat
	}
	if t.size == 0 {
		// A from-scratch walk of an empty tree observes nothing; mirror it
		// exactly (the maintained counters still know about the empty root).
		t.catalog.cat = costmodel.Catalog{PageSize: t.opts.PageSize, Height: t.height}
		t.catalog.valid = true
		return t.catalog.cat
	}
	t.catalog.cat = t.catalog.maint.catalog(t.opts.PageSize, t.height)
	if t.root.IsLeaf() && len(t.catalog.cat.Levels) > 0 {
		// A single-node tree's only shape is the root leaf, which mutates
		// with every insert (and was never "created" by a split, so the
		// reservoir may not hold it at all).  Override the assembled leaf
		// averages with a live summary — ephemerally, on the assembled copy:
		// the maintained reservoir stays a pure function of the construction
		// sequence, so identical sequences keep yielding identical catalogs
		// regardless of when CatalogStats was called.
		s := summarize(t.root)
		lv := &t.catalog.cat.Levels[0]
		lv.SampleSize = 1
		lv.AvgFanout = float64(s.fanout)
		lv.AvgEntryWidth = s.width
		lv.AvgEntryHeight = s.height
		lv.AvgDensity = s.density
	}
	t.catalog.valid = true
	return t.catalog.cat
}
