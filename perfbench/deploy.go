package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"time"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// The server workloads assemble what spatialjoind assembles, in process: a
// pager on the real file system with the shipped flush policy (one fsync per
// group commit), a TreeStore, server.New with the daemon's defaults, and
// server.NewHandler on a loopback listener.

const (
	pageSize   = storage.PageSize4K
	cacheBytes = 1 << 20 // spatialjoind -cache default
)

// shard is one running join server.
type shard struct {
	dir    string
	pager  *storage.Pager
	store  *rtree.TreeStore
	srv    *server.Server
	httpd  *http.Server
	served chan error
	url    string
}

// openShard opens a fresh pager under workDir and starts a server joining it
// against sTree.  keys, when set, makes it one shard of a sharded
// deployment.
func openShard(workDir string, sTree *rtree.Tree, keys *zorder.KeyRange, tr *tracer) (_ *shard, err error) {
	sh := &shard{}
	if sh.dir, err = os.MkdirTemp(workDir, "shard-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, sh.close())
		}
	}()
	if sh.pager, err = storage.OpenPager(storage.OSVFS{}, filepath.Join(sh.dir, "r.db"), pageSize, storage.PagerOptions{}); err != nil {
		return nil, err
	}
	tree, err := rtree.New(rtree.Options{PageSize: pageSize})
	if err != nil {
		return nil, err
	}
	if sh.store, err = rtree.NewTreeStore(tree, sh.pager); err != nil {
		return nil, err
	}
	sh.srv, err = server.New(server.Config{
		Store:           sh.store,
		S:               sTree,
		MaxInflight:     64,
		CostBudget:      30 * time.Second,
		DefaultDeadline: 10 * time.Second,
		CacheBytes:      cacheBytes,
		JoinDefaults:    join.Options{Predicate: join.Intersects()},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sh.url = "http://" + ln.Addr().String()
	sh.httpd = &http.Server{Handler: tr.wrap(server.NewHandler(sh.srv, server.HandlerConfig{Shard: keys}))}
	sh.served = make(chan error, 1)
	go func() { sh.served <- sh.httpd.Serve(ln) }()
	return sh, nil
}

// load stages items through Server.Update and publishes them with one
// Server.Round, the way an initial bulk of updates reaches the server.
func (sh *shard) load(items []rtree.Item) (time.Duration, server.RoundStats, error) {
	ops := make([]server.Op, len(items))
	for i, it := range items {
		ops[i] = server.Op{Rect: it.Rect, Data: it.Data}
	}
	start := time.Now()
	if err := sh.srv.Update(ops); err != nil {
		return 0, server.RoundStats{}, err
	}
	rs, err := sh.srv.Round()
	return time.Since(start), rs, err
}

func (sh *shard) close() error {
	var errs []error
	if sh.httpd != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, sh.httpd.Shutdown(ctx))
		cancel()
		if err := <-sh.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if sh.srv != nil {
		errs = append(errs, sh.srv.Close())
	}
	if sh.pager != nil {
		errs = append(errs, sh.pager.Close())
	}
	if sh.dir != "" {
		errs = append(errs, os.RemoveAll(sh.dir))
	}
	return errors.Join(errs...)
}

// counters are the shard's public counters at one instant.
type counters struct {
	pager storage.PagerStats
	cache buffer.PageCacheStats
	srv   server.StatsSnapshot
}

func (sh *shard) counters() counters {
	c := counters{pager: sh.pager.Stats(), srv: sh.srv.Snapshot()}
	if pc := sh.srv.Cache(); pc != nil {
		c.cache = pc.Stats()
	}
	return c
}

// squares returns n axis-parallel squares of the given side with identifiers
// from firstID, inside the unit square.  Coordinates are rounded to float32,
// the precision of an on-disk page, so the oracle and the pager-backed tree
// see identical rectangles.
func squares(rng *rand.Rand, n int, side float64, firstID int32) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		items[i] = rtree.Item{Rect: square(rng, side), Data: firstID + int32(i)}
	}
	return items
}

func square(rng *rand.Rand, side float64) geom.Rect {
	x := float64(float32(rng.Float64() * (1 - side)))
	y := float64(float32(rng.Float64() * (1 - side)))
	return geom.Rect{XL: x, YL: y, XU: float64(float32(x + side)), YU: float64(float32(y + side))}
}

// wireTiming is one POST /join as the client saw it.
type wireTiming struct {
	total, ttfb, transfer, decode time.Duration
	bytes                         int
	span                          string // span identifier sent, when traced
}

// postJoin sends one join request and decodes the answer.  With a tracer the
// request carries a span header and the client records when the first and
// last response bytes arrived.
func postJoin(ctx context.Context, c *http.Client, url string, body []byte, tr *tracer) (server.JoinResponseWire, wireTiming, error) {
	var out server.JoinResponseWire
	var t wireTiming
	var first time.Time
	if tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/join", bytes.NewReader(body))
	if err != nil {
		return out, t, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		t.span = tr.newID()
		req.Header.Set(spanHeader, t.span)
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return out, t, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, t, err
	}
	last := time.Now()
	if resp.StatusCode != http.StatusOK {
		return out, t, fmt.Errorf("POST /join: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, t, fmt.Errorf("POST /join: decoding: %w", err)
	}
	end := time.Now()
	t.total = end.Sub(start)
	t.bytes = len(data)
	if !first.IsZero() {
		t.ttfb = first.Sub(start)
		t.transfer = last.Sub(first)
	}
	t.decode = end.Sub(last)
	return out, t, nil
}

// post sends a JSON body to path and decodes a 2xx answer into out.
func post(ctx context.Context, c *http.Client, url, path string, body []byte, span string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != "" {
		req.Header.Set(spanHeader, span)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
