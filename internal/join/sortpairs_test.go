package join

import (
	"math/rand"
	"testing"
)

func TestSortPairs(t *testing.T) {
	pairs := []Pair{{R: 2, S: 1}, {R: 1, S: 2}, {R: 1, S: 1}, {R: 2, S: 0}}
	SortPairs(pairs)
	want := []Pair{{R: 1, S: 1}, {R: 1, S: 2}, {R: 2, S: 0}, {R: 2, S: 1}}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
}

// BenchmarkSortPairs sorts 120k pairs shaped like the served intersection
// join's output (R ids below 10 000, S ids below 7 500, unsorted); each
// iteration first copies the unsorted input back.
func BenchmarkSortPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]Pair, 120_000)
	for i := range in {
		in[i] = Pair{R: int32(rng.Intn(10_000)), S: int32(rng.Intn(7_500))}
	}
	work := make([]Pair, len(in))
	b.ReportAllocs()
	for b.Loop() {
		copy(work, in)
		SortPairs(work)
	}
}
