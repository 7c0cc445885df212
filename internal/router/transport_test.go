package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/zorder"
)

// The stub tests pin the retry and fan-out policies against hand-rolled
// shard handlers, where every response code and header is scripted.

// stubShard serves h as a single shard owning the whole key space.
func stubShard(t *testing.T, h http.Handler) Shard {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return Shard{Name: "stub", URL: ts.URL, Range: zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}}
}

type sleepRecorder struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (s *sleepRecorder) sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.slept = append(s.slept, d)
	s.mu.Unlock()
	return ctx.Err()
}

func okJoin(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"epoch":1,"count":1,"pairs":[[1,2]]}`)
}

// TestDoHonoursRetryAfterCapped: a shedding shard's Retry-After is obeyed
// — as RFC 9110 integer seconds — but capped at MaxRetryAfter, so one
// confused shard cannot stall the whole fan-out.
func TestDoHonoursRetryAfterCapped(t *testing.T) {
	var hits int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		okJoin(w)
	})

	rec := &sleepRecorder{}
	rt, err := New(Config{
		Shards:        []Shard{stubShard(t, mux)},
		RetryAttempts: 3,
		MaxRetryAfter: 500 * time.Millisecond,
		sleep:         rec.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Shards[0].Attempts)
	}
	if len(rec.slept) != 1 || rec.slept[0] != 500*time.Millisecond {
		t.Fatalf("slept %v, want exactly the 500ms cap (shard asked for 7s)", rec.slept)
	}
}

// TestDoBacksOffOn5xx: a 500 without Retry-After retries on the router's
// own doubling backoff.
func TestDoBacksOffOn5xx(t *testing.T) {
	var hits int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		okJoin(w)
	})

	rec := &sleepRecorder{}
	rt, err := New(Config{
		Shards:        []Shard{stubShard(t, mux)},
		RetryAttempts: 3,
		RetryBackoff:  3 * time.Millisecond,
		sleep:         rec.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Join(context.Background(), JoinRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Shards[0].Attempts)
	}
	want := []time.Duration{3 * time.Millisecond, 6 * time.Millisecond}
	if len(rec.slept) != len(want) || rec.slept[0] != want[0] || rec.slept[1] != want[1] {
		t.Fatalf("slept %v, want %v", rec.slept, want)
	}
}

// TestDoTreats4xxAsPermanent: client errors mean the request itself is
// wrong; retrying would hammer the shard with the same broken request.
func TestDoTreats4xxAsPermanent(t *testing.T) {
	var hits int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, `{"error":"no such method"}`, http.StatusBadRequest)
	})

	rec := &sleepRecorder{}
	rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 3, sleep: rec.sleep})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Join(context.Background(), JoinRequest{})
	if !errors.Is(err, ErrPartialFailure) {
		t.Fatalf("err = %v, want ErrPartialFailure", err)
	}
	if hits != 1 {
		t.Fatalf("4xx was retried: %d requests", hits)
	}
	if len(rec.slept) != 0 {
		t.Fatalf("4xx slept %v before giving up", rec.slept)
	}
}

// TestDoRejectsUnsortedShardStream: a shard answering out of (R, S) order
// violates the wire contract the merge depends on; the router treats it as
// a shard failure instead of silently re-sorting.
func TestDoRejectsUnsortedShardStream(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"epoch":1,"count":2,"pairs":[[2,1],[1,2]]}`)
	})

	rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, RetryAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Join(context.Background(), JoinRequest{})
	if !errors.Is(err, ErrPartialFailure) {
		t.Fatalf("err = %v, want ErrPartialFailure for an unsorted stream", err)
	}
}

// TestJoinSendsNoStats: a join fans straight out to every shard's /join.
// A shard whose /stats hangs must not delay it, so the join finishes well
// inside one ShardTimeout and never asks for /stats at all.
func TestJoinSendsNoStats(t *testing.T) {
	var statsHits, joinHits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		statsHits.Add(1)
		<-r.Context().Done()
	})
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		joinHits.Add(1)
		okJoin(w)
	})

	rt, err := New(Config{Shards: []Shard{stubShard(t, mux)}, ShardTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := rt.Join(context.Background(), JoinRequest{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("count = %d, want the stub's 1 pair", res.Count)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("join took %v against a hung /stats, want under 150ms", elapsed)
	}
	if n := statsHits.Load(); n != 0 {
		t.Fatalf("join sent %d /stats request(s), want 0", n)
	}
	if n := joinHits.Load(); n != 1 {
		t.Fatalf("join sent %d /join request(s), want 1", n)
	}
}

// TestNewRejectsBadDeployments: gaps, overlaps and duplicate names are
// configuration errors New refuses outright — a gap loses updates, an
// overlap duplicates pairs.
func TestNewRejectsBadDeployments(t *testing.T) {
	half := zorder.KeySpace / 2
	cases := map[string]Config{
		"no shards": {},
		"gap": {Shards: []Shard{
			{URL: "http://a", Range: zorder.KeyRange{Lo: 0, Hi: half - 1}},
			{URL: "http://b", Range: zorder.KeyRange{Lo: half, Hi: zorder.KeySpace}},
		}},
		"overlap": {Shards: []Shard{
			{URL: "http://a", Range: zorder.KeyRange{Lo: 0, Hi: half + 1}},
			{URL: "http://b", Range: zorder.KeyRange{Lo: half, Hi: zorder.KeySpace}},
		}},
		"short": {Shards: []Shard{
			{URL: "http://a", Range: zorder.KeyRange{Lo: 0, Hi: half}},
		}},
		"duplicate name": {Shards: []Shard{
			{Name: "x", URL: "http://a", Range: zorder.KeyRange{Lo: 0, Hi: half}},
			{Name: "x", URL: "http://b", Range: zorder.KeyRange{Lo: half, Hi: zorder.KeySpace}},
		}},
		"missing URL": {Shards: []Shard{
			{Range: zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}},
		}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted a broken deployment", name)
		}
	}
}

// TestMergeSorted pins the k-way merge on a hand-checkable case, including
// an equal pair in two streams (kept from both — shards with disjoint R
// cannot produce one, but the merge must stay deterministic if they did).
func TestMergeSorted(t *testing.T) {
	streams := [][][2]int32{
		{{1, 1}, {1, 3}, {4, 0}},
		{},
		{{1, 2}, {1, 3}, {2, 0}},
	}
	want := [][2]int32{{1, 1}, {1, 2}, {1, 3}, {1, 3}, {2, 0}, {4, 0}}
	got := mergeSorted(streams, 6)
	assertPairsEqual(t, "merge", got, want)
}
