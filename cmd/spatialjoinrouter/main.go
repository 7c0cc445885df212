// Command spatialjoinrouter fronts a deployment of Hilbert-range shards
// (spatialjoind processes started with -shard lo:hi) and serves the same
// HTTP surface a single daemon would: updates route to the shard owning
// the rectangle's centre key, joins fan out to every shard and merge into
// one deterministic, (R, S)-sorted pair set, and failures stay typed — a
// partial fan-out is an error, never a silently truncated result.
//
// The shard layout is learned, not configured: at startup the router polls
// each shard's GET /stats (with retries, so shards may still be booting)
// and reads the advertised key range.  The ranges must tile the Hilbert
// key space exactly or the router refuses to start.
//
// Usage:
//
//	spatialjoinrouter -addr :7460 -shards http://127.0.0.1:7461,http://127.0.0.1:7462
//
// Endpoints:
//
//	POST /update  JSON [{"xl":..,"yl":..,"xu":..,"yu":..,"data":1}, ...]
//	POST /round   commit staged mutations on every shard
//	POST /join    JSON {"workers":4,"discard_pairs":false} (body optional)
//	GET  /stats   per-shard server counters and coverage summaries
//
// Error mapping: a shard failing after retries yields 502 with the failed
// shard names; if every shard was shedding, the router sheds too (503 with
// the largest shard Retry-After); a deadline maps to 504; a malformed
// predicate maps to 400.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/join"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/zorder"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatialjoinrouter:", err)
		os.Exit(1)
	}
}

type routerFlags struct {
	addr          string
	shardURLs     []string
	deadline      time.Duration
	retries       int
	backoff       time.Duration
	maxRetryAfter time.Duration
	discoverFor   time.Duration
}

func parseFlags(args []string) (routerFlags, error) {
	fs := flag.NewFlagSet("spatialjoinrouter", flag.ContinueOnError)
	var cfg routerFlags
	var shards string
	fs.StringVar(&cfg.addr, "addr", ":7460", "listen address")
	fs.StringVar(&shards, "shards", "", "comma-separated shard base URLs (ranges are learned from each shard's /stats)")
	fs.DurationVar(&cfg.deadline, "deadline", 30*time.Second, "per-attempt shard request timeout")
	fs.IntVar(&cfg.retries, "retries", 3, "attempts per shard request before the shard counts as failed")
	fs.DurationVar(&cfg.backoff, "backoff", 50*time.Millisecond, "first retry delay (doubles per attempt)")
	fs.DurationVar(&cfg.maxRetryAfter, "max-retry-after", 2*time.Second, "cap on a shedding shard's honoured Retry-After")
	fs.DurationVar(&cfg.discoverFor, "discover-timeout", 10*time.Second, "how long to keep polling shards for their key ranges at startup")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	for _, u := range strings.Split(shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.shardURLs = append(cfg.shardURLs, u)
		}
	}
	if len(cfg.shardURLs) == 0 {
		return cfg, errors.New("no -shards configured")
	}
	return cfg, nil
}

// discoverShards polls each shard's /stats until it advertises its key
// range (shards may still be starting), bounded by the discovery timeout.
// A shard advertising no range owns the whole key space — a single
// unsharded daemon behind the router is a valid one-shard deployment.
func discoverShards(ctx context.Context, client *http.Client, cfg routerFlags) ([]router.Shard, error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.discoverFor)
	defer cancel()
	shards := make([]router.Shard, len(cfg.shardURLs))
	for i, url := range cfg.shardURLs {
		url = strings.TrimRight(url, "/")
		rng, err := pollShardRange(ctx, client, url)
		if err != nil {
			return nil, fmt.Errorf("discovering %s: %w", url, err)
		}
		shards[i] = router.Shard{Name: fmt.Sprintf("shard%d@%s", i, url), URL: url, Range: rng}
	}
	return shards, nil
}

func pollShardRange(ctx context.Context, client *http.Client, url string) (zorder.KeyRange, error) {
	var lastErr error
	for {
		rng, err := fetchShardRange(ctx, client, url)
		if err == nil {
			return rng, nil
		}
		lastErr = err
		t := time.NewTimer(200 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return zorder.KeyRange{}, fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
		case <-t.C:
		}
	}
}

func fetchShardRange(ctx context.Context, client *http.Client, url string) (zorder.KeyRange, error) {
	reqCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url+"/stats", nil)
	if err != nil {
		return zorder.KeyRange{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return zorder.KeyRange{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return zorder.KeyRange{}, fmt.Errorf("stats returned %d", resp.StatusCode)
	}
	var wire server.StatsWire
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return zorder.KeyRange{}, err
	}
	if wire.Shard == "" {
		return zorder.KeyRange{Lo: 0, Hi: zorder.KeySpace}, nil
	}
	return zorder.ParseKeyRange(wire.Shard)
}

func run(ctx context.Context, args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger := log.New(out, "spatialjoinrouter: ", log.LstdFlags)
	client := &http.Client{}

	shards, err := discoverShards(ctx, client, cfg)
	if err != nil {
		return err
	}
	rt, err := router.New(router.Config{
		Shards:        shards,
		Client:        client,
		ShardTimeout:  cfg.deadline,
		RetryAttempts: cfg.retries,
		RetryBackoff:  cfg.backoff,
		MaxRetryAfter: cfg.maxRetryAfter,
	})
	if err != nil {
		return err
	}
	for _, sh := range rt.Shards() {
		logger.Printf("shard %s owns %s", sh.URL, sh.Range)
	}

	httpSrv := server.NewHTTPServer(cfg.addr, newHandler(rt))
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	logger.Printf("routing on %s over %d shards", ln.Addr(), len(shards))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Printf("shutting down")
	case err := <-errCh:
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		return err
	}
	return nil
}

// appendJoinResponse appends the router's POST /join body: the merged pair
// set plus the per-shard outcomes a client needs to reason about tail
// latency and retries.  The bytes are the ones json.Encoder writes for
//
//	struct {
//		Count  int                   `json:"count"`
//		Pairs  [][2]int32            `json:"pairs,omitempty"`
//		Shards []router.ShardOutcome `json:"shards"`
//	}
//
// with the pairs written by server.AppendPairs, as a shard writes its own.
func appendJoinResponse(dst []byte, res *router.JoinResult) ([]byte, error) {
	shards, err := json.Marshal(res.Shards)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(res.Count), 10)
	if len(res.Pairs) > 0 {
		dst = append(dst, `,"pairs":`...)
		dst = server.AppendPairs(dst, res.Pairs)
	}
	dst = append(dst, `,"shards":`...)
	dst = append(dst, shards...)
	return append(dst, "}\n"...), nil
}

func newHandler(rt *router.Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		var ops []server.OpWire
		if status, err := server.DecodeBody(w, r, &ops); err != nil {
			writeJSON(w, status, map[string]string{"error": err.Error()})
			return
		}
		staged, err := rt.Update(r.Context(), ops)
		if err != nil {
			writeRouterError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]int{"staged": staged})
	})
	mux.HandleFunc("POST /round", func(w http.ResponseWriter, r *http.Request) {
		if err := rt.Round(r.Context()); err != nil {
			writeRouterError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		var req server.JoinRequestWire
		if r.ContentLength != 0 {
			if status, err := server.DecodeBody(w, r, &req); err != nil {
				writeJSON(w, status, map[string]string{"error": err.Error()})
				return
			}
		}
		res, err := rt.Join(r.Context(), router.JoinRequest{
			Method:       req.Method,
			Workers:      req.Workers,
			Predicate:    req.Predicate,
			DiscardPairs: req.DiscardPairs,
		})
		if err != nil {
			writeRouterError(w, err)
			return
		}
		body, err := appendJoinResponse(make([]byte, 0, 64+16*len(res.Pairs)), res)
		if err != nil {
			writeRouterError(w, err)
			return
		}
		server.WriteBody(w, http.StatusOK, body)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		stats, err := rt.Stats(r.Context())
		if err != nil {
			writeRouterError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, stats)
	})
	return mux
}

// writeRouterError maps the router's typed errors onto gateway semantics:
// every shard shedding means the deployment is overloaded, so the router
// sheds too (503 with the largest shard Retry-After); any other partial
// fan-out is a 502 naming the failed shards; a deadline is a 504; a
// malformed predicate is the client's fault, a 400, as on a shard daemon.
func writeRouterError(w http.ResponseWriter, err error) {
	var perr *router.PartialError
	switch {
	case errors.As(err, &perr):
		if after, allShed := allShedding(perr); allShed {
			secs := int(after / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": "all shards shedding", "failed": shardNames(perr),
			})
			return
		}
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":     err.Error(),
			"failed":    shardNames(perr),
			"succeeded": perr.Succeeded,
		})
	case errors.Is(err, join.ErrBadPredicate):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// allShedding reports whether every failed shard's terminal error was a
// 503 shed, and the largest Retry-After any of them asked for.
func allShedding(perr *router.PartialError) (time.Duration, bool) {
	var after time.Duration
	for _, f := range perr.Failures {
		var se *router.StatusError
		if !errors.As(f, &se) || se.Code != http.StatusServiceUnavailable {
			return 0, false
		}
		if se.RetryAfter > after {
			after = se.RetryAfter
		}
	}
	return after, len(perr.Failures) > 0
}

func shardNames(perr *router.PartialError) []string {
	names := make([]string, len(perr.Failures))
	for i, f := range perr.Failures {
		names[i] = f.Shard
	}
	return names
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
