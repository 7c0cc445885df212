package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

func sampleItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = Item{
			Rect: geom.Rect{XL: x, YL: y, XU: x + rng.Float64()*0.05, YU: y + rng.Float64()*0.05},
			Data: int32(i),
		}
	}
	return items
}

// TestCatalogStatsMatchStructure checks the exact half of the catalog
// against a full walk, for both construction paths: the per-level node and
// entry counts must equal the tree's true populations, and the derived
// subtree expectations must be consistent with them.
func TestCatalogStatsMatchStructure(t *testing.T) {
	items := sampleItems(3000, 7)
	build := map[string]func() *Tree{
		"bulk-str": func() *Tree {
			tr, err := BulkLoadSTR(Options{PageSize: storage.PageSize1K}, items)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		"bulk-hilbert": func() *Tree {
			tr, err := BulkLoadHilbert(Options{PageSize: storage.PageSize1K}, items)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		"dynamic": func() *Tree {
			tr := MustNew(Options{PageSize: storage.PageSize1K})
			tr.InsertItems(items)
			return tr
		},
	}
	for name, mk := range build {
		tr := mk()
		cat := tr.CatalogStats()
		if !cat.Valid() {
			t.Fatalf("%s: catalog invalid", name)
		}
		if cat.Height != tr.Height() || len(cat.Levels) != tr.Height() {
			t.Fatalf("%s: catalog height %d/%d levels, tree height %d",
				name, cat.Height, len(cat.Levels), tr.Height())
		}
		if cat.PageSize != tr.PageSize() {
			t.Fatalf("%s: catalog page size %d, tree %d", name, cat.PageSize, tr.PageSize())
		}
		// Count the true populations per level.
		nodes := make([]int64, tr.Height())
		entries := make([]int64, tr.Height())
		tr.Walk(func(n *Node) {
			nodes[n.Level]++
			entries[n.Level] += int64(len(n.Entries))
		})
		var totalPages int64
		for l, stat := range cat.Levels {
			if stat.Nodes != nodes[l] || stat.Entries != entries[l] {
				t.Errorf("%s level %d: catalog %d nodes/%d entries, tree %d/%d",
					name, l, stat.Nodes, stat.Entries, nodes[l], entries[l])
			}
			if stat.SampleSize == 0 || stat.SampleSize > SampleReservoirSize {
				t.Errorf("%s level %d: sample size %d outside (0,%d]",
					name, l, stat.SampleSize, SampleReservoirSize)
			}
			if int64(stat.SampleSize) > stat.Nodes {
				t.Errorf("%s level %d: sample %d larger than population %d",
					name, l, stat.SampleSize, stat.Nodes)
			}
			if stat.AvgFanout <= 0 || stat.AvgEntryWidth < 0 || stat.AvgEntryHeight < 0 {
				t.Errorf("%s level %d: degenerate sample averages %+v", name, l, stat)
			}
			totalPages += stat.Nodes
		}
		if cat.DataEntries() != int64(tr.Len()) {
			t.Errorf("%s: catalog reports %d data entries, tree holds %d", name, cat.DataEntries(), tr.Len())
		}
		// A subtree rooted at the top level is the whole tree.
		root := tr.Height() - 1
		if got := cat.SubtreePages(root); got != float64(totalPages) {
			t.Errorf("%s: SubtreePages(root) = %v, want %d", name, got, totalPages)
		}
		if got := cat.SubtreeEntries(root); got != float64(tr.Len()) {
			t.Errorf("%s: SubtreeEntries(root) = %v, want %d", name, got, tr.Len())
		}
		if w, h, ok := cat.LeafExtent(); !ok || w <= 0 || h <= 0 {
			t.Errorf("%s: leaf extent (%v, %v, %v)", name, w, h, ok)
		}
		if d, ok := cat.LeafDensity(); !ok || d <= 0 {
			t.Errorf("%s: leaf density (%v, %v)", name, d, ok)
		}
	}
}

// TestCatalogStatsDeterministic: identical trees must produce identical
// catalogs (the reservoir RNG is deterministically seeded), which is what
// makes the schedules derived from the statistics reproducible.
func TestCatalogStatsDeterministic(t *testing.T) {
	items := sampleItems(2000, 11)
	a, err := BulkLoadSTR(Options{PageSize: storage.PageSize1K}, items)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BulkLoadSTR(Options{PageSize: storage.PageSize1K}, items)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.CatalogStats(), b.CatalogStats()
	if len(ca.Levels) != len(cb.Levels) {
		t.Fatalf("level counts differ: %d vs %d", len(ca.Levels), len(cb.Levels))
	}
	for l := range ca.Levels {
		if ca.Levels[l] != cb.Levels[l] {
			t.Errorf("level %d differs:\n%+v\n%+v", l, ca.Levels[l], cb.Levels[l])
		}
	}
	// The lazy walk must agree with itself across calls (cache hit or not).
	if again := a.CatalogStats(); again.Levels[0] != ca.Levels[0] {
		t.Error("repeated CatalogStats calls disagree")
	}
}

// TestCatalogStatsInvalidation: mutations must invalidate the cache, and the
// lazily reassembled statistics must describe the mutated tree.
func TestCatalogStatsInvalidation(t *testing.T) {
	tr := MustNew(Options{PageSize: storage.PageSize1K})
	items := sampleItems(800, 3)
	tr.InsertItems(items)
	before := tr.CatalogStats()
	if before.DataEntries() != 800 {
		t.Fatalf("catalog reports %d entries, want 800", before.DataEntries())
	}
	extra := geom.Rect{XL: 0.1, YL: 0.1, XU: 0.2, YU: 0.2}
	tr.Insert(extra, 9001)
	after := tr.CatalogStats()
	if after.DataEntries() != 801 {
		t.Errorf("after insert: catalog reports %d entries, want 801", after.DataEntries())
	}
	if !tr.Delete(extra, 9001) {
		t.Fatal("delete failed")
	}
	if got := tr.CatalogStats().DataEntries(); got != 800 {
		t.Errorf("after delete: catalog reports %d entries, want 800", got)
	}
}
