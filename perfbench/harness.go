package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	// seconds is the length of the measured phase.
	seconds float64
	trace   bool
	// setups is how many times the workload is set up; setup_s is the
	// median and the last set-up is the one measured.
	setups int
	// minSamples extends the measured phase until this many joins
	// completed, so p90 has enough samples beyond it.
	minSamples int
	// scale multiplies every cardinality (1 in real runs; tests shrink it).
	scale float64
	// workDir holds the pager files of the server workloads.
	workDir string
	// corrupt, when set, rewrites every answer (its count and pairs) before
	// the oracle check; the tests use it to prove that a wrong answer fails
	// the run.
	corrupt func(count int, pairs [][2]int32) (int, [][2]int32)
}

func (c config) scaled(n int) int { return int(math.Round(float64(n) * c.scale)) }

// instance is one set-up workload, ready to be measured.
type instance interface {
	// run drives one measured phase, recording every join in p; the
	// workload keeps whatever it needs for its per-layer metrics and its
	// oracle check.
	run(ctx context.Context, p *phase)
	// layers fills the per-layer metrics of the traced phase p.
	layers(p *phase, m map[string]float64)
	// check compares every answer collected so far against the oracle.
	check() error
	// params describes the workload's inputs for the run record.
	params() map[string]any
	close() error
}

type setupFunc func(cfg config) (instance, error)

var setups = map[string]setupFunc{
	"intersect-wire": setupIntersectWire,
	"knn-sharded":    setupKNNSharded,
	"churn":          setupChurn,
	"refine-lines":   setupRefineLines,
}

// phase is one measured window.
type phase struct {
	traced     bool
	duration   time.Duration
	minSamples int

	mu        sync.Mutex
	start     time.Time
	lat       []time.Duration // per completed join, send to checked answer
	at        []time.Duration // when each join completed, from the start
	attempted int
	failed    int
	elapsed   time.Duration

	rt0, rt1   runtimeCounters
	cpu0, cpu1 cpuTicks
	rssMB      []float64 // resident set readings while the phase ran
}

func (p *phase) done(lat time.Duration) {
	p.mu.Lock()
	p.attempted++
	p.lat = append(p.lat, lat)
	p.at = append(p.at, time.Since(p.start))
	p.mu.Unlock()
}

func (p *phase) fail() {
	p.mu.Lock()
	p.attempted++
	p.failed++
	p.mu.Unlock()
}

// count adds non-join operations (updates, rounds) to the attempt and
// failure tallies.
func (p *phase) count(attempted, failed int) {
	p.mu.Lock()
	p.attempted += attempted
	p.failed += failed
	p.mu.Unlock()
}

func (p *phase) joins() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lat)
}

// closedLoop runs clients that each issue their next join only after the
// previous one returned, until the phase duration has passed and at least
// minSamples joins completed.  op returns the join's latency, or an error
// for a failed join.
func (p *phase) closedLoop(ctx context.Context, clients int, op func(client int) (time.Duration, error)) {
	start := time.Now()
	p.mu.Lock()
	p.start = start
	p.mu.Unlock()
	deadline := start.Add(p.duration)
	// A slow system may not reach minSamples in the phase; the hard stop
	// keeps the run inside its time limit.
	hardStop := start.Add(4 * p.duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				now := time.Now()
				if now.After(hardStop) || (now.After(deadline) && p.joins() >= p.minSamples) {
					return
				}
				lat, err := op(c)
				if err != nil {
					p.fail()
					continue
				}
				p.done(lat)
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
}

// quantile returns the q-quantile of the durations in milliseconds by the
// nearest-rank rule (0 for no samples).
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return ms(s[idx])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters are the process-wide allocation and CPU counters.
type runtimeCounters struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeCounters{val(samples[0]), val(samples[1]), val(samples[2])}
}

// cpuTicks are the machine's CPU time counters from /proc/stat: all time,
// and the time a hypervisor gave this machine's CPUs to someone else.
type cpuTicks struct{ total, steal float64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of CPU time stolen since t0: a run with a high
// share measured a busy host, not the program.
func (t cpuTicks) stealSince(t0 cpuTicks) float64 {
	return ratio(t.steal-t0.steal, t.total-t0.total)
}

// rssInterval is how often sampleRSS reads the resident set.
const rssInterval = 50 * time.Millisecond

// sampleRSS reads the process's resident set (VmRSS) now and then every
// rssInterval until stop is closed, and returns the readings in MB.  Their
// median is a phase's footprint under load.  The peak (VmHWM) is set by a
// few spikes that depend on when the collector ran: over refine-lines runs
// on a shared 2-vCPU machine it spread 31-40 MB while the median spread
// 28.7-29.7 MB.
func sampleRSS(stop <-chan struct{}) []float64 {
	t := time.NewTicker(rssInterval)
	defer t.Stop()
	mb := []float64{procStatusMB("VmRSS:")}
	for {
		select {
		case <-stop:
			return mb
		case <-t.C:
			mb = append(mb, procStatusMB("VmRSS:"))
		}
	}
}

// procStatusMB reads one of the process's memory sizes, such as "VmRSS:"
// (resident now) or "VmHWM:" (peak resident), in MB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// host is the fingerprint every run record carries.
func host() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the line before the result: everything needed to compare the
// run with another one.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Samples  int                `json:"samples"`
	Host     map[string]any     `json:"host"`
	Params   map[string]any     `json:"params"`
	Metrics  map[string]float64 `json:"metrics"`
	// Windows splits the measured phase into equal parts and gives each
	// part's join p50 and throughput, to show drift within the run.
	Windows map[string][]float64 `json:"windows"`
}

type recordLine struct {
	Record record `json:"perfbench_record"`
}

// runBenchmark sets the workload up cfg.setups times, measures the last
// set-up and returns the run record.  A non-nil error means the program
// answered wrongly (or could not be set up); the record is still filled as
// far as the run got.
func runBenchmark(cfg config, log io.Writer) (record, int, int, error) {
	rec := record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Host: host()}
	setup, ok := setups[cfg.workload]
	if !ok {
		return rec, 0, 0, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	speedBefore := hostSpeed(hostSpeedWindow)
	var inst instance
	var setupSecs []float64
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return rec, 0, 0, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			inst = nil
			// Drop the previous set-up's memory so every set-up starts
			// from the same heap and the peak RSS does not depend on when
			// the collector last ran.
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		inst, err = setup(cfg)
		if err != nil {
			return rec, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintln(log, "perfbench: closing:", err)
		}
	}()
	rec.Params = inst.params()

	ctx := context.Background()
	measure := func(traced bool, d time.Duration) *phase {
		p := &phase{traced: traced, duration: d, minSamples: cfg.minSamples}
		p.rt0, p.cpu0 = readRuntime(), readCPUTicks()
		stop, rss := make(chan struct{}), make(chan []float64)
		go func() { rss <- sampleRSS(stop) }()
		inst.run(ctx, p)
		close(stop)
		p.rssMB = <-rss
		p.rt1, p.cpu1 = readRuntime(), readCPUTicks()
		return p
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	untraced := measure(false, d)
	m := map[string]float64{}
	rec.Windows = windows(untraced, 5)
	attempted, failed := untraced.attempted, untraced.failed
	if cfg.trace {
		traced := measure(true, d)
		for _, pm := range perLayer {
			m[pm.Name] = 0
		}
		inst.layers(traced, m)
		m["harness.cpu_steal_frac"] = traced.cpu1.stealSince(traced.cpu0)
		joins := float64(len(traced.lat))
		m["failed_frac"] = ratio(float64(traced.failed), float64(traced.attempted))
		m["runtime.alloc_mb_per_join"] = ratio((traced.rt1.allocBytes-traced.rt0.allocBytes)/(1<<20), joins)
		m["runtime.gc_cpu_frac"] = ratio(traced.rt1.gcCPU-traced.rt0.gcCPU, traced.rt1.totalCPU-traced.rt0.totalCPU)
		m["join_p90_ms"] = quantileMS(untraced.lat, 0.9)
		m["peak_rss_mb"] = procStatusMB("VmHWM:")
		m["harness.traced_join_p50_ms"] = quantileMS(traced.lat, 0.5)
		m["harness.trace_overhead"] = ratio(throughput(untraced), throughput(traced))
		rec.Samples = len(traced.lat)
		attempted += traced.attempted
		failed += traced.failed
	} else {
		m["setup_s"] = median(setupSecs)
		m["join_p50_ms"] = quantileMS(untraced.lat, 0.5)
		m["join_p90_ms"] = quantileMS(untraced.lat, 0.9)
		m["joins_per_s"] = throughput(untraced)
		m["ok_frac"] = 1 - ratio(float64(untraced.failed), float64(untraced.attempted))
		m["rss_p50_mb"] = median(untraced.rssMB)
		m["harness.cpu_steal_frac"] = untraced.cpu1.stealSince(untraced.cpu0)
		rec.Samples = len(untraced.lat)
		if l, ok := inst.(interface{ writerLagP90() float64 }); ok {
			m["harness.writer_lag_p90_ms"] = l.writerLagP90()
		}
	}
	m["harness.host_mops"] = (speedBefore + hostSpeed(hostSpeedWindow)) / 2
	rec.Metrics = m
	if err := inst.check(); err != nil {
		return rec, attempted, failed, fmt.Errorf("oracle mismatch: %w", err)
	}
	return rec, attempted, failed, nil
}

// windows splits the phase into n equal parts by completion time.
func windows(p *phase, n int) map[string][]float64 {
	parts := make([][]time.Duration, n)
	for i, at := range p.at {
		w := min(int(int64(at)*int64(n)/int64(p.elapsed)), n-1)
		parts[w] = append(parts[w], p.lat[i])
	}
	out := map[string][]float64{}
	for _, lat := range parts {
		out["join_p50_ms"] = append(out["join_p50_ms"], quantileMS(lat, 0.5))
		out["joins_per_s"] = append(out["joins_per_s"], float64(len(lat))*float64(n)/p.elapsed.Seconds())
	}
	return out
}

// throughputChunks is how many runs of consecutive completions the
// throughput is the median of.
const throughputChunks = 15

// throughput is the phase's completed joins per second: the median over
// throughputChunks runs of consecutive completions, each its join count
// divided by the time from the previous run's last completion to its own.
// A stall on a shared host (a stolen CPU, a collection) slows one or two
// runs and leaves the median alone, where joins over the whole phase would
// carry it; a change that slows every join moves every run.
func throughput(p *phase) float64 {
	n := len(p.at)
	if n < 2*throughputChunks {
		return ratio(float64(n), p.elapsed.Seconds())
	}
	rates := make([]float64, 0, throughputChunks)
	prevIdx, prevAt := 0, time.Duration(0)
	for c := 1; c <= throughputChunks; c++ {
		idx := c * n / throughputChunks
		at := p.at[idx-1]
		rates = append(rates, ratio(float64(idx-prevIdx), (at-prevAt).Seconds()))
		prevIdx, prevAt = idx, at
	}
	return median(rates)
}

// mismatches collects oracle failures from concurrent clients; only the
// first few are kept verbatim.
type mismatches struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (m *mismatches) add(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	if len(m.first) < 3 {
		m.first = append(m.first, fmt.Sprintf(format, args...))
	}
}

func (m *mismatches) err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return nil
	}
	return fmt.Errorf("%d answers differ from the oracle, first: %s", m.n, strings.Join(m.first, "; "))
}

// printResult writes the run record and the final result line.
func printResult(w io.Writer, rec record, attempted, failed int, correct bool) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(recordLine{rec}); err != nil {
		return err
	}
	list := endToEnd
	if rec.Trace {
		list = perLayer
	}
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		out.Metrics[m.Name] = metricValue{Value: rec.Metrics[m.Name], Unit: m.Unit}
	}
	return enc.Encode(out)
}
