// Command samplebench is the repository's end-to-end benchmark. It
// builds cmd/sampled from the checkout, starts it as a child process on
// loopback, drives one workload against it from seeded traffic, checks
// every output against an in-process reference, and prints one JSON
// line of metrics. With -trace 1 it also replays the workload's frames
// in-process through each layer's public functions and reports the
// per-layer metrics instead. BENCHMARK.json at the repository root
// names the workloads and metrics and records why each was chosen.
//
// Run it from the repository root:
//
//	bash _samplebench/run.sh --workload session-fanin --seed 1 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dist"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	root     string // repository checkout
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tiny     bool // self-test size
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "session-fanin or state-restart")
	flag.Uint64Var(&cfg.seed, "seed", 1, "traffic and spec seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measuring time per run")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced in-process replay")
	flag.Parse()
	cfg.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.root = root

	// A signal stops the run; the deferred kills reap the daemon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	switch {
	case err != nil && res.Attempted > 0:
		// Once the daemon has been driven, a failed run still reports
		// what it attempted and how much failed, with no metrics.
		fmt.Fprintln(os.Stderr, "samplebench:", err)
		res.Correct, res.Metrics = false, map[string]metric{}
		printResult(res)
		os.Exit(1)
	case err != nil:
		fatal(err)
	}
	printResult(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "samplebench:", err)
	os.Exit(1)
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// minCycles is the fewest daemon lifetimes a run measures, so set-up,
// shutdown and restore times are medians of at least this many.
const minCycles = 3

// maxLate is the share of reads the reader may send late before the
// run is invalid. Below it the reported read median is at most the
// 56th percentile of the reads the reader sent on time.
const maxLate = 0.1

// run executes one benchmark invocation. An error with res.Attempted
// above 0 means the run drove the daemon and then failed: an operation
// failed, an output was wrong, or the reader fell behind.
func run(ctx context.Context, cfg config) (res result, err error) {
	res.Metrics = map[string]metric{}
	s, ok := shapes[cfg.workload]
	if !ok {
		return res, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.tiny {
		s = s.tiny()
	}
	buildDir := filepath.Join(cfg.root, ".bench_build")
	workDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(workDir)
	bin, err := buildDaemon(ctx, cfg.root, buildDir)
	if err != nil {
		return res, err
	}

	// Inputs: specs, traffic and frames from the seed, before any
	// daemon runs.
	b := &bench{shape: s, bin: bin, workDir: workDir}
	defer func() { res.Attempted, res.Failed = b.ops.attempted.Load(), b.ops.failed.Load() }()
	rng := dist.NewRand(cfg.seed)
	b.defs = s.defs(rng)
	if b.fs, err = buildFrames(s, b.defs, cfg.seed); err != nil {
		return res, err
	}
	b.checked = checkedSubset(s, rng)
	b.refs = make(map[int]expected, len(b.checked))
	for _, e := range b.checked {
		if b.refs[e], err = reference(s, b.defs[e], b.fs, e); err != nil {
			return res, err
		}
	}
	for _, e := range rng.Perm(s.entities) {
		b.reads = append(b.reads, b.snapshotPath(e))
	}
	b.clients = []*http.Client{newClient(), newClient()}
	defer closeIdle(b.clients)

	var cycles []cycle
	var reads readerStats
	start := time.Now()
	for k := 0; k < minCycles || time.Since(start) < time.Duration(cfg.seconds)*time.Second; k++ {
		if cfg.tiny && k > 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		c, err := b.runCycle(k)
		if err != nil {
			return res, err
		}
		report(k, c)
		cycles = append(cycles, c)
		reads.add(c.reads)
	}
	if float64(reads.late) > maxLate*float64(reads.attempts) {
		return res, fmt.Errorf("invalid run: the reader sent %d of %d reads more than %v late (worst %v)",
			reads.late, reads.attempts, lateLimit, reads.lagMax)
	}
	res.Correct = true
	e2e := endToEnd(cycles, reads.lat)
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := replay(b, filepath.Join(buildDir, "spans-"+s.name+".tsv"), e2e["ingest_p50_ms"].Value)
	if err != nil {
		return res, err
	}
	layers["reader.snapshot_p99_ms"] = metric{percentile(reads.lat, 99), "ms"}
	layers["reader.lag_max_ms"] = metric{float64(reads.lagMax) / 1e6, "ms"}
	layers["reader.late_reads"] = metric{float64(reads.late), "count"}
	res.Metrics = layers
	return res, nil
}

// endToEnd reduces a run's cycles to the end-to-end metrics: medians
// over cycles, and latency medians over every request of the run. The
// ingest p99 is the median of the cycles' p99s: the 99th percentile
// sits where the slow 1 to 2% of requests begin, so it swings with a
// burst of host load that the median over cycles leaves out.
func endToEnd(cycles []cycle, readLat []float64) map[string]metric {
	per := func(f func(c cycle) float64) float64 {
		v := make([]float64, len(cycles))
		for i, c := range cycles {
			v[i] = f(c)
		}
		return median(v)
	}
	var shutdown, restore, ingestLat []float64
	for _, c := range cycles {
		shutdown = append(shutdown, c.shutdown...)
		restore = append(restore, c.restore...)
		ingestLat = append(ingestLat, c.ingestLat...)
	}
	fmt.Fprintf(os.Stderr, "run: %d cycles, %d ingest requests, %d reads, %d restarts\n",
		len(cycles), len(ingestLat), len(readLat), len(restore))
	return map[string]metric{
		"setup_s":                 {per(func(c cycle) float64 { return c.setup.Seconds() }), "s"},
		"ingest_ticks_per_s":      {per(func(c cycle) float64 { return float64(c.ticks) / c.ingest.Seconds() }), "1/s"},
		"ingest_p50_ms":           {percentile(ingestLat, 50), "ms"},
		"ingest_p99_ms":           {per(func(c cycle) float64 { return percentile(c.ingestLat, 99) }), "ms"},
		"snapshot_p50_ms":         {percentile(readLat, 50), "ms"},
		"server_cpu_ms_per_mtick": {per(func(c cycle) float64 { return float64(c.cpu) / 1e6 / (float64(c.ticks) / 1e6) }), "ms"},
		"rss_peak_mb":             {per(func(c cycle) float64 { return c.rss / (1 << 20) }), "MiB"},
		"checkpoint_bytes":        {per(func(c cycle) float64 { return float64(c.ckptBytes) }), "B"},
		"shutdown_s":              {median(shutdown), "s"},
		"restore_s":               {median(restore), "s"},
	}
}

// report logs one cycle to stderr, with its sample counts and the
// reader's lateness.
func report(k int, c cycle) {
	fmt.Fprintf(os.Stderr,
		"cycle %d: setup %.3fs ingest %.3fs (%.3g ticks/s, %d requests p50 %.3fms p99 %.3fms) cpu %v "+
			"reads %d (p50 %.3fms p99 %.3fms, failed %d, reader lag max %v, late %d) "+
			"rss %.1fMiB ckpt %dB shutdown %.3fs restore %.3fs\n",
		k, c.setup.Seconds(), c.ingest.Seconds(), float64(c.ticks)/c.ingest.Seconds(),
		len(c.ingestLat), percentile(c.ingestLat, 50), percentile(c.ingestLat, 99), c.cpu,
		len(c.reads.lat), percentile(c.reads.lat, 50), percentile(c.reads.lat, 99), c.reads.failed,
		c.reads.lagMax, c.reads.late, c.rss/(1<<20), c.ckptBytes, median(c.shutdown), median(c.restore))
}
