package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/zorder"
)

func doHTTP(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, &buf))
	return w
}

// TestHandlerRetryAfterIsIntegerSeconds is the satellite regression for the
// RFC 9110 violation: a shed response's Retry-After must parse as a whole
// number of seconds (strconv.Atoi) and be at least 1.  The old %g formatting
// produced values like "0.0005", which conforming clients parse as 0 and
// retry immediately — the exact opposite of shedding.
func TestHandlerRetryAfterIsIntegerSeconds(t *testing.T) {
	fx := newFixture(t, Config{CostBudget: 1}) // 1ns: every join sheds
	h := NewHandler(fx.srv, HandlerConfig{})

	w := doHTTP(t, h, "POST", "/join", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed join: %d %s", w.Code, w.Body)
	}
	ra := w.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q does not parse as RFC 9110 integer seconds: %v", ra, err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", secs)
	}
}

// TestHandlerPairsAreSorted pins the wire contract the router's sorted merge
// depends on: /join responses carry their pairs in ascending (R, S) order,
// whatever worker split produced them.
func TestHandlerPairsAreSorted(t *testing.T) {
	fx := newFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})

	for _, workers := range []int{0, 4} {
		w := doHTTP(t, h, "POST", "/join", JoinRequestWire{Workers: workers})
		if w.Code != http.StatusOK {
			t.Fatalf("join (workers=%d): %d %s", workers, w.Code, w.Body)
		}
		var resp JoinResponseWire
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Count == 0 || len(resp.Pairs) != resp.Count {
			t.Fatalf("workers=%d: count=%d pairs=%d", workers, resp.Count, len(resp.Pairs))
		}
		for i := 1; i < len(resp.Pairs); i++ {
			a, b := resp.Pairs[i-1], resp.Pairs[i]
			if a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]) {
				t.Fatalf("workers=%d: pairs not in (R, S) order at %d: %v > %v", workers, i, a, b)
			}
		}
	}
}

// TestHandlerStatsCarriesCoverage checks that /stats publishes the snapshot
// coverage a router plans with, including the shard range when configured.
func TestHandlerStatsCarriesCoverage(t *testing.T) {
	fx := newFixture(t, Config{})
	shard := zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}
	h := NewHandler(fx.srv, HandlerConfig{Shard: &shard})

	w := doHTTP(t, h, "GET", "/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
	var stats StatsWire
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shard != shard.String() {
		t.Fatalf("shard = %q, want %q", stats.Shard, shard.String())
	}
	cov := stats.Coverage
	if cov.Epoch == 0 || cov.RItems != len(fx.rItems) || cov.SItems != len(fx.sItems) {
		t.Fatalf("coverage = %+v, want epoch > 0, R=%d, S=%d", cov, len(fx.rItems), len(fx.sItems))
	}
	if cov.RMBR.XU <= cov.RMBR.XL || cov.RMBR.YU <= cov.RMBR.YL {
		t.Fatalf("degenerate R MBR: %+v", cov.RMBR)
	}
}
