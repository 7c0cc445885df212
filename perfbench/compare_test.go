package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one run record per value of join_p50_ms, seeds 1..n.
func writeRuns(t *testing.T, path string, p50 []float64) {
	t.Helper()
	var buf bytes.Buffer
	for i, v := range p50 {
		rec := record{Workload: "churn", Seed: int64(i + 1), Metrics: map[string]float64{
			"join_p50_ms": v, "joins_per_s": 100,
		}}
		line, err := json.Marshal(recordLine{rec})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteString("\n{\"correct\":true}\n")
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	parent := filepath.Join(dir, "parent.log")
	writeRuns(t, parent, []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98})
	cases := map[string][]float64{
		"better":     {8, 8.1, 7.9, 8.05, 7.95, 8, 8.1, 7.9, 8.02, 7.98},
		"worse":      {13, 13.1, 12.9, 13.05, 12.95, 13, 13.1, 12.9, 13.02, 12.98},
		"unchanged":  {10.01, 10.09, 9.91, 10.04, 9.96, 10.01, 10.09, 9.92, 10.01, 9.99},
		"unresolved": {6, 14, 7, 13, 8, 12, 9, 11, 10, 10},
	}
	for want, values := range cases {
		change := filepath.Join(dir, want+".log")
		writeRuns(t, change, values)
		var out bytes.Buffer
		if err := compare(&out, []string{parent, change}); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "join_p50_ms") && !strings.HasSuffix(line, " "+want) {
				t.Errorf("%s: %s", want, line)
			}
		}
	}
}
