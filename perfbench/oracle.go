package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// The oracles are brute force and share no code with the program under test
// beyond the rectangle type: a pair's MBR distance is computed here with the
// same float64 operations the predicate definition uses, so ties and
// boundaries resolve identically.

// rectDist2 is the squared Euclidean distance between two rectangles (0 when
// they intersect or touch).
func rectDist2(r, s geom.Rect) float64 {
	var dx, dy float64
	if s.XU < r.XL {
		dx = r.XL - s.XU
	} else if r.XU < s.XL {
		dx = s.XL - r.XU
	}
	if s.YU < r.YL {
		dy = r.YL - s.YU
	} else if r.YU < s.YL {
		dy = s.YL - r.YU
	}
	return dx*dx + dy*dy
}

// pairsWithin returns every (R, S) identifier pair whose rectangles are
// within eps of each other (eps 0: they intersect), sorted by (R, S).
func pairsWithin(rs, ss []rtree.Item, eps float64) [][2]int32 {
	// Sort S by its lower x and remember the widest S, so each R scans only
	// the S items whose x extent can reach it.
	byX := append([]rtree.Item(nil), ss...)
	sort.Slice(byX, func(i, j int) bool { return byX[i].Rect.XL < byX[j].Rect.XL })
	maxW := 0.0
	for _, s := range byX {
		maxW = max(maxW, s.Rect.XU-s.Rect.XL)
	}
	eps2 := eps * eps
	var out [][2]int32
	for _, r := range rs {
		lo := sort.Search(len(byX), func(i int) bool { return byX[i].Rect.XL >= r.Rect.XL-eps-maxW })
		for _, s := range byX[lo:] {
			if s.Rect.XL > r.Rect.XU+eps {
				break
			}
			if rectDist2(r.Rect, s.Rect) <= eps2 {
				out = append(out, [2]int32{r.Data, s.Data})
			}
		}
	}
	sortPairs(out)
	return out
}

// knnOracle returns, for every R item, its k nearest S items by (squared
// MBR distance, S identifier), as pairs sorted by (R, S).
func knnOracle(rs, ss []rtree.Item, k int) [][2]int32 {
	type cand struct {
		d2 float64
		id int32
	}
	less := func(a, b cand) bool { return a.d2 < b.d2 || (a.d2 == b.d2 && a.id < b.id) }
	out := make([][2]int32, 0, len(rs)*k)
	best := make([]cand, 0, k+1)
	for _, r := range rs {
		best = best[:0]
		for _, s := range ss {
			c := cand{rectDist2(r.Rect, s.Rect), s.Data}
			if len(best) == k && !less(c, best[k-1]) {
				continue
			}
			// Insertion into the short sorted list of the best so far.
			i := len(best)
			if i < k {
				best = append(best, c)
			} else {
				i = k - 1
			}
			for i > 0 && less(c, best[i-1]) {
				best[i] = best[i-1]
				i--
			}
			best[i] = c
		}
		for _, c := range best {
			out = append(out, [2]int32{r.Data, c.id})
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(p [][2]int32) {
	slices.SortFunc(p, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
}

// pairHash is the FNV-1a hash of the pairs in the given order.
func pairHash(p [][2]int32) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range p {
		binary.LittleEndian.PutUint32(buf[0:], uint32(x[0]))
		binary.LittleEndian.PutUint32(buf[4:], uint32(x[1]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// answer is an oracle's expected pair set, by count and hash.
type answer struct {
	count int
	hash  uint64
}

func answerOf(p [][2]int32) answer { return answer{len(p), pairHash(p)} }

// diff reports how got differs from want, or "" when they agree.  The wire
// contract sorts pairs by (R, S), so got is hashed in the order received.
func (want answer) diff(count int, got [][2]int32) string {
	if count != want.count || len(got) != want.count {
		return fmt.Sprintf("count %d with %d pairs, want %d", count, len(got), want.count)
	}
	if h := pairHash(got); h != want.hash {
		return fmt.Sprintf("pair hash %016x, want %016x", h, want.hash)
	}
	return ""
}

// segment is a line object's exact geometry: the diagonal of its MBR from
// (XL, YL) to (XU, YU), as core.LineObjectsFromItems defines it.
type segment struct{ ax, ay, bx, by float64 }

func segmentOf(r geom.Rect) segment { return segment{r.XL, r.YL, r.XU, r.YU} }

// segDist2 is the squared distance between two segments: 0 when they cross,
// otherwise the smallest endpoint-to-segment distance.
func segDist2(s, t segment) float64 {
	if segmentsCross(s, t) {
		return 0
	}
	return min(
		pointSegDist2(s.ax, s.ay, t), pointSegDist2(s.bx, s.by, t),
		pointSegDist2(t.ax, t.ay, s), pointSegDist2(t.bx, t.by, s),
	)
}

func orient(ax, ay, bx, by, cx, cy float64) float64 {
	return (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
}

func segmentsCross(s, t segment) bool {
	d1 := orient(t.ax, t.ay, t.bx, t.by, s.ax, s.ay)
	d2 := orient(t.ax, t.ay, t.bx, t.by, s.bx, s.by)
	d3 := orient(s.ax, s.ay, s.bx, s.by, t.ax, t.ay)
	d4 := orient(s.ax, s.ay, s.bx, s.by, t.bx, t.by)
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

func pointSegDist2(px, py float64, s segment) float64 {
	dx, dy := s.bx-s.ax, s.by-s.ay
	l2 := dx*dx + dy*dy
	t := 0.0
	if l2 > 0 {
		t = ((px-s.ax)*dx + (py-s.ay)*dy) / l2
		t = max(0, min(1, t))
	}
	ex, ey := s.ax+t*dx-px, s.ay+t*dy-py
	return ex*ex + ey*ey
}
