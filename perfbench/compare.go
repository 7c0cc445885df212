package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compare reads the output of benchmark runs from one or two files and
// prints, for every (workload, metric) pair, each side's median and
// quartiles.  With two files (parent first, change second) it also prints
// how many seed-matched pairs of runs the change won and a verdict:
//
//   - better: the change won at least nine tenths of the pairs and the
//     medians differ by more than the parent's own quartile spread;
//   - worse: the change's median is worse than the parent's by more than the
//     metric's bound;
//   - unresolved: the quartile spread of either side is wider than the
//     bound, so "unchanged" cannot be told from noise — unless every change
//     run beat every parent run;
//   - unchanged: otherwise.
//
// Per-layer metrics have no bound; their verdict uses 0.1.
func compare(w io.Writer, files []string) error {
	if len(files) < 1 || len(files) > 2 {
		return fmt.Errorf("compare takes one or two files of run output")
	}
	var sets []map[string][]record
	for _, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			return err
		}
		sets = append(sets, recs)
	}
	var keys []string
	for k := range sets[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-20s %-28s %-6s %33s", "workload", "metric", "unit", "median [q1, q3] spread")
	if len(sets) == 2 {
		fmt.Fprintf(w, " %33s %7s %s", "change median [q1, q3] spread", "wins", "verdict")
	}
	fmt.Fprintln(w)
	for _, key := range keys {
		parent := sets[0][key]
		names := metricNames(parent)
		for _, name := range names {
			m, _ := metricByName(name)
			a := values(parent, name)
			qa := quartiles(a)
			fmt.Fprintf(w, "%-20s %-28s %-6s %33s", key, name, m.Unit, qa)
			if len(sets) == 2 {
				change := sets[1][key]
				b := values(change, name)
				if len(b) == 0 {
					fmt.Fprintf(w, " %33s", "no runs")
				} else {
					qb := quartiles(b)
					wins, pairs := pairWins(parent, change, name, m.Better)
					fmt.Fprintf(w, " %33s %3d/%-3d %s", qb, wins, pairs, verdict(m, a, b, qa, qb, wins, pairs))
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// readRecords collects the run records of a file of benchmark output, by
// workload, with "/trace" appended for traced runs.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"perfbench_record"`) {
			continue
		}
		var rl recordLine
		if err := json.Unmarshal(line, &rl); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		key := rl.Record.Workload
		if rl.Record.Trace {
			key = rl.Record.Workload + "/trace"
		}
		out[key] = append(out[key], rl.Record)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

// metricNames lists the metrics the records carry, end-to-end ones first.
func metricNames(recs []record) []string {
	var names []string
	for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		if len(values(recs, m.Name)) > 0 {
			names = append(names, m.Name)
		}
	}
	return names
}

func values(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if x, ok := r.Metrics[name]; ok {
			v = append(v, x)
		}
	}
	return v
}

// quart is a sample's median and quartiles, computed like Python's
// statistics.quantiles(values, n=4) (the exclusive method).
type quart struct{ q1, med, q3 float64 }

func quartiles(v []float64) quart {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		x := 0.0
		if len(s) == 1 {
			x = s[0]
		}
		return quart{x, x, x}
	}
	// The integer arithmetic of CPython's statistics.quantiles, n=4.
	const n = 4
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return quart{at(1), at(2), at(3)}
}

// spread is the quartile distance as a share of the median.
func (q quart) spread() float64 { return ratio(q.q3-q.q1, math.Abs(q.med)) }

func (q quart) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", q.med, q.q1, q.q3, 100*q.spread())
}

// pairWins counts the seed-matched pairs in which the change was better.
func pairWins(parent, change []record, name, better string) (wins, pairs int) {
	bySeed := map[int64]float64{}
	for _, r := range parent {
		if v, ok := r.Metrics[name]; ok {
			bySeed[r.Seed] = v
		}
	}
	for _, r := range change {
		a, ok := bySeed[r.Seed]
		b, ok2 := r.Metrics[name]
		if !ok || !ok2 {
			continue
		}
		pairs++
		if (better == "lower" && b < a) || (better == "higher" && b > a) {
			wins++
		}
	}
	return wins, pairs
}

func verdict(m Metric, a, b []float64, qa, qb quart, wins, pairs int) string {
	bound := m.Bound
	if bound == 0 {
		bound = 0.1
	}
	sign := 1.0 // positive = the change is worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * ratio(qb.med-qa.med, math.Abs(qa.med))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	moved := math.Abs(qb.med-qa.med) > qa.q3-qa.q1
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && moved && worse < 0:
		return "better"
	case worse > bound:
		return "worse"
	case (qa.spread() > bound || qb.spread() > bound) && !allBetter:
		return "unresolved"
	case moved && worse < 0 && !allBetter:
		// Better beyond the parent's own spread, but without the pair
		// wins a gain needs.
		return "unresolved"
	default:
		return "unchanged"
	}
}
