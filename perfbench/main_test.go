package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

func tinyArgs(workload, seed, trace string) []string {
	return []string{"--workload", workload, "--seed", seed, "--seconds", "0.3", "--trace", trace}
}

// runTiny runs the command in process and returns its exit code, its final
// line parsed as a result (when it printed one) and its run record.  The
// workload runs at a twentieth of its size (a quarter for the sparse line
// maps, which have no pairs below that) with one set-up, so every code path
// of a real run executes in a fraction of a second.
func runTiny(t *testing.T, args []string, corrupt func(int, [][2]int32) (int, [][2]int32)) (int, *result, *record) {
	t.Helper()
	t.Setenv("PERFBENCH_WORKDIR", t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, func(cfg *config) {
		cfg.setups, cfg.minSamples, cfg.scale, cfg.corrupt = 1, 3, 0.05, corrupt
		if cfg.workload == "refine-lines" {
			cfg.scale = 0.25
		}
	})
	var res *result
	var rec *record
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var rl recordLine
		if json.Unmarshal([]byte(line), &rl) == nil && rl.Record.Workload != "" {
			rec = &rl.Record
			continue
		}
		var r result
		if json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			res = &r
		}
	}
	if code != 0 {
		t.Logf("exit %d, stderr: %s", code, stderr.String())
	}
	return code, res, rec
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				code, res, _ := runTiny(t, tinyArgs(w.Name, "1", trace), nil)
				if code != 0 || res == nil {
					t.Fatalf("exit %d, result %v", code, res)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if trace == "0" {
					for _, m := range endToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestCorruptedAnswersFail proves that a wrong answer makes the command exit
// non-zero without a result line, for every kind of corruption the oracles
// must catch.
func TestCorruptedAnswersFail(t *testing.T) {
	dropPair := func(count int, p [][2]int32) (int, [][2]int32) {
		return count - 1, append([][2]int32(nil), p[1:]...)
	}
	swapS := func(count int, p [][2]int32) (int, [][2]int32) {
		q := append([][2]int32(nil), p...)
		q[len(q)/2][1] ^= 1
		return count, q
	}
	// An R item answered by both shards: its neighbour list appears twice in
	// the merged union.
	doubleHomed := func(count int, p [][2]int32) (int, [][2]int32) {
		r := p[0][0]
		q := append([][2]int32(nil), p...)
		for _, x := range p {
			if x[0] == r {
				q = append(q, x)
			}
		}
		sortPairs(q)
		return len(q), q
	}
	offByOne := func(count int, p [][2]int32) (int, [][2]int32) { return count + 1, p }
	cases := []struct {
		name, workload string
		corrupt        func(int, [][2]int32) (int, [][2]int32)
	}{
		{"dropped pair", "intersect-wire", dropPair},
		{"swapped S id", "intersect-wire", swapS},
		{"dropped pair", "knn-sharded", dropPair},
		{"swapped S id", "knn-sharded", swapS},
		{"R id answered by both shards", "knn-sharded", doubleHomed},
		{"wrong epoch count", "churn", offByOne},
		{"dropped pair", "refine-lines", dropPair},
		{"swapped S id", "refine-lines", swapS},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.name, func(t *testing.T) {
			code, res, _ := runTiny(t, tinyArgs(c.workload, "1", "0"), c.corrupt)
			if code == 0 || res != nil {
				t.Fatalf("exit %d with result %v; a wrong answer must fail the run", code, res)
			}
		})
	}
}

func TestSeedChangesInputsNotMetrics(t *testing.T) {
	a := squares(rand.New(rand.NewSource(1)), 50, 0.02, 0)
	b := squares(rand.New(rand.NewSource(2)), 50, 0.02, 0)
	if a[0] == b[0] {
		t.Fatal("seeds 1 and 2 generated the same first rectangle")
	}
	keys := map[string]string{}
	pairs := map[string]any{}
	for _, seed := range []string{"1", "2"} {
		code, res, rec := runTiny(t, tinyArgs("intersect-wire", seed, "0"), nil)
		if code != 0 || res == nil {
			t.Fatalf("seed %s: exit %d", seed, code)
		}
		var names []string
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		keys[seed] = strings.Join(names, ",")
		pairs[seed] = rec.Params["pairs"]
	}
	if keys["1"] != keys["2"] {
		t.Errorf("metric sets differ by seed: %s vs %s", keys["1"], keys["2"])
	}
	if pairs["1"] == pairs["2"] {
		t.Errorf("both seeds gave %v pairs; the inputs did not change", pairs["1"])
	}
}

// TestCountedCostsRepeat runs each workload with counted costs twice on the
// same seed: the paper's counted comparisons, page accesses and refinement
// operations must be identical (and each run already checks that they
// repeat from call to call).
func TestCountedCostsRepeat(t *testing.T) {
	for _, w := range []string{"intersect-wire", "knn-sharded", "refine-lines"} {
		t.Run(w, func(t *testing.T) {
			var first map[string]metricValue
			for i := 0; i < 2; i++ {
				code, res, _ := runTiny(t, tinyArgs(w, "3", "1"), nil)
				if code != 0 || res == nil {
					t.Fatalf("exit %d", code)
				}
				if res.Metrics["join.comparisons"].Value == 0 {
					t.Fatal("no counted comparisons reported")
				}
				if first == nil {
					first = res.Metrics
					continue
				}
				for _, name := range []string{"join.comparisons", "join.disk_accesses", "refine.ops"} {
					if res.Metrics[name] != first[name] {
						t.Errorf("%s: %v, then %v", name, first[name].Value, res.Metrics[name].Value)
					}
				}
			}
		})
	}
}

func TestBenchmarkJSONIsGenerated(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate it with: bash perfbench/run.sh spec > BENCHMARK.json")
	}
}

// TestSpecWithinLimits pins the limits a benchmark description must meet.
func TestSpecWithinLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %+v out of limits", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		use(m.Name)
		if m.Bound != 0 || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v out of limits", m)
		}
	}
	if len(benchmarkJSON()) > 64<<10 {
		t.Error("BENCHMARK.json over 64 KiB")
	}
}

func TestKNNOracleByHand(t *testing.T) {
	rect := func(x, y float64) geom.Rect { return geom.Rect{XL: x, YL: y, XU: x + 1, YU: y + 1} }
	rs := []rtree.Item{{Rect: rect(0, 0), Data: 7}}
	ss := []rtree.Item{
		{Rect: rect(5, 0), Data: 1},   // distance 4
		{Rect: rect(0, 3), Data: 2},   // distance 2
		{Rect: rect(0.5, 0), Data: 3}, // overlaps: 0
		{Rect: rect(-3, 0), Data: 4},  // distance 2, larger id than 2
		{Rect: rect(1, 1), Data: 5},   // touches: 0
	}
	got := knnOracle(rs, ss, 3)
	want := [][2]int32{{7, 2}, {7, 3}, {7, 5}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSegmentDistanceByHand(t *testing.T) {
	cases := []struct {
		s, u segment
		want float64
	}{
		{segment{0, 0, 2, 2}, segment{0, 2, 2, 0}, 0}, // cross
		{segment{0, 0, 1, 0}, segment{0, 1, 1, 1}, 1}, // parallel
		{segment{0, 0, 1, 0}, segment{2, 0, 3, 0}, 1}, // collinear gap
		{segment{0, 0, 0, 0}, segment{3, 4, 3, 4}, 25},
		{segment{0, 0, 4, 0}, segment{2, 1, 2, 3}, 1}, // endpoint above the middle
	}
	for _, c := range cases {
		if got := segDist2(c.s, c.u); got != c.want {
			t.Errorf("segDist2(%v, %v) = %v, want %v", c.s, c.u, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartiles to the values CPython's
// statistics.quantiles(values, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q := quartiles(v); q != (quart{2.75, 5.5, 8.25}) {
		t.Errorf("quartiles %+v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != (quart{1, 2, 4}) {
		t.Errorf("quartiles %+v", q)
	}
}
