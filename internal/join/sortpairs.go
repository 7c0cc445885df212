package join

// SortPairs sorts result pairs by (R, S).  ParallelJoin's pair order depends
// on the schedule, so tests and golden comparisons sort both sides before
// comparing against the sequential result, and the server sorts before it
// puts pairs on the wire.
//
// It is a least-significant-digit radix sort over pairKey, one byte per
// pass.  Each pass is stable, so the last one leaves the pairs in key order,
// which is (R, S) order; equal keys are equal pairs, so the result is the
// one any correct sort gives.  A pass whose byte is the same in every key
// moves nothing and is skipped: identifiers below 2^16 need four of the
// eight passes.
func SortPairs(pairs []Pair) {
	if len(pairs) < 2 {
		return
	}
	var counts [8][256]int
	for _, p := range pairs {
		k := pairKey(p)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	first := pairKey(pairs[0])
	src, dst := pairs, []Pair(nil)
	for d := range counts {
		shift := 8 * d
		c := &counts[d]
		if c[byte(first>>shift)] == len(pairs) {
			continue
		}
		if dst == nil {
			dst = make([]Pair, len(pairs))
		}
		off := 0
		for b, n := range c {
			c[b] = off
			off += n
		}
		for _, p := range src {
			b := byte(pairKey(p) >> shift)
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// pairKey maps a pair to a uint64 whose unsigned order is the pair's (R, S)
// order: R in the high word, S in the low, each with its sign bit flipped so
// negative identifiers order below positive ones.
func pairKey(p Pair) uint64 {
	return uint64(uint32(p.R)^1<<31)<<32 | uint64(uint32(p.S)^1<<31)
}
