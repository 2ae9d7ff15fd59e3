// Command sampleload drives a sampling service with self-similar
// traffic and reports the achieved ingest rate — the measuring stick
// for the hot path. It creates N concurrent streams, feeds each a
// long-range-dependent series (exact fGn or a heavy-tailed ON/OFF
// superposition) in batches, and prints the aggregate ticks/sec.
//
// Two targets:
//
//	sampleload -direct                      # in-process against a sampling/hub.Hub
//	sampleload -addr localhost:8080         # over HTTP against a running sampled daemon
//
// The traffic is generated once (a base series shared by all streams,
// phase-rotated per stream so streams do not tick in lockstep) and the
// ingest phase alone is timed, so the report measures the service, not
// the generator. Every offer also lands in a client-side latency
// histogram, and the report includes per-request p50/p95/p99 for the
// wire driven; -log-format/-log-level control structured diagnostics.
//
// With an online estimator attached (-estimator, default aggvar) every
// stream also tracks the Hurst parameter of the traffic it ingests and
// of the samples its technique keeps, and the run reports the aggregate
// pre- vs post-sampling H and their drift — the paper's preservation
// analysis as a live measurement. -estimator off disables it (and the
// per-tick estimation cost) for pure throughput runs.
//
// With -compare, every stream becomes a comparison group: the
// ';'-separated specs all consume the same traffic side by side and the
// run reports a per-technique fidelity table (kept ratio, mean and
// variance bias against the unsampled input, Hurst drift) instead of a
// single-technique drift block — the paper's cross-technique comparison
// as a load test.
//
// Examples:
//
//	sampleload -direct -streams 256 -ticks 100000 -spec "bss:interval=100,L=5"
//	sampleload -addr localhost:8080 -streams 32 -ticks 20000 -traffic onoff
//	sampleload -direct -streams 64 -spec "systematic:interval=100" -estimator wavelet
//	sampleload -direct -streams 8 -compare "systematic:interval=100;bss:interval=100,L=5,eps=1.0"
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/internal/obs"
	"repro/internal/traffic"
	"repro/sampling"
	"repro/sampling/estimate"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sampleload:", err)
		os.Exit(1)
	}
}

// loadConfig parameterizes one load run.
type loadConfig struct {
	direct    bool
	addr      string
	streams   int
	ticks     int // per stream
	batch     int
	workers   int
	spec      string
	compare   string // ";"-separated specs; non-empty switches to comparison groups
	wire      string // HTTP ingest encoding: json, text, binary or session ("" = json)
	traffic   string // "fgn" or "onoff"
	hurst     float64
	seed      uint64
	estimator string // online Hurst estimator method; "" or "off" disables

	// logger carries the run's structured diagnostics (milestones at
	// debug, failures at warn). nil silences them.
	logger *slog.Logger
}

// log returns the config's logger, substituting a discard logger so
// call sites never nil-check.
func (c loadConfig) log() *slog.Logger {
	if c.logger == nil {
		return slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c.logger
}

// wireName resolves the config's wire selection, defaulting to json so
// zero-value configs (and -direct runs, where the wire is moot) behave
// as before.
func (c loadConfig) wireName() string {
	if c.wire == "" {
		return "json"
	}
	return c.wire
}

// wireLabel names the transport for the latency report: the HTTP wire,
// or "direct" for in-process runs where no wire is involved.
func (c loadConfig) wireLabel() string {
	if c.direct {
		return "direct"
	}
	return c.wireName()
}

// checkWire rejects wire selections that cannot work before any stream
// exists.
func (c loadConfig) checkWire() error {
	switch c.wireName() {
	case "json", "text", "binary", "session":
	default:
		return fmt.Errorf("unknown wire %q (json, text, binary or session)", c.wire)
	}
	if c.direct && c.wire != "" && c.wire != "json" {
		return fmt.Errorf("-wire %s selects an HTTP encoding; it has no meaning with -direct", c.wire)
	}
	return nil
}

// estimatorMethod resolves the config's estimator selection: the method
// to attach, or "" when estimation is off.
func (c loadConfig) estimatorMethod() estimate.Method {
	if c.estimator == "" || c.estimator == "off" {
		return ""
	}
	return estimate.Method(c.estimator)
}

// driftReport aggregates the per-stream Hurst blocks of one run: the
// mean pre-sampling (input) H, the mean post-sampling (kept) H, and the
// mean drift between them, each over the streams where the estimate
// resolved.
type driftReport struct {
	method                estimate.Method
	inputN, keptN, driftN int
	inputH, keptH, driftH float64
}

// loadResult is what a run achieved.
type loadResult struct {
	ticks   int64
	kept    int64
	elapsed time.Duration
	drift   *driftReport   // nil when the run had no estimator
	lat     *obs.Histogram // client-side per-request (per-offer) latency
}

// latencyBuckets spans 1µs..64s exponentially — wide enough for both
// in-process offers and HTTP round trips.
func latencyBuckets() []float64 { return obs.ExpBuckets(1e-6, 2, 26) }

// timedOffer wraps a driver's offer with the client-side latency
// histogram: one observation per request (or per in-process batch).
func timedOffer(lat *obs.Histogram, offer func(string, []float64) (int, error)) func(string, []float64) (int, error) {
	return func(id string, batch []float64) (int, error) {
		start := time.Now()
		kept, err := offer(id, batch)
		lat.Observe(time.Since(start).Seconds())
		return kept, err
	}
}

// latencyLine renders the p50/p95/p99 report for one run's histogram,
// or "" when nothing was observed.
func latencyLine(lat *obs.Histogram, wire string) string {
	if lat == nil || lat.Count() == 0 {
		return ""
	}
	q := func(p float64) time.Duration {
		return time.Duration(lat.Quantile(p) * float64(time.Second)).Round(time.Microsecond)
	}
	return fmt.Sprintf("latency:  p50 %v  p95 %v  p99 %v per request (%s wire, %d requests)",
		q(0.50), q(0.95), q(0.99), wire, lat.Count())
}

func (r loadResult) ticksPerSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ticks) / r.elapsed.Seconds()
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sampleload", flag.ContinueOnError)
	cfg := loadConfig{}
	fs.BoolVar(&cfg.direct, "direct", false, "drive an in-process hub instead of a daemon")
	fs.StringVar(&cfg.addr, "addr", "localhost:8080", "sampled daemon address (ignored with -direct)")
	fs.IntVar(&cfg.streams, "streams", 64, "concurrent streams")
	fs.IntVar(&cfg.ticks, "ticks", 100000, "ticks per stream")
	fs.IntVar(&cfg.batch, "batch", 512, "ticks per ingest batch")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "ingest goroutines")
	fs.StringVar(&cfg.spec, "spec", "systematic:interval=100", "sampler spec for every stream")
	fs.StringVar(&cfg.compare, "compare", "",
		`";"-separated sampler specs: drive comparison groups instead of single-technique streams and report a per-technique fidelity table (e.g. "systematic:interval=100;bss:interval=100,L=5,eps=1.0")`)
	fs.StringVar(&cfg.wire, "wire", "json",
		"HTTP ingest encoding: json, text, binary (one tick-batch frame per POST) or session (one long-lived frame stream per stream or group)")
	fs.StringVar(&cfg.traffic, "traffic", "fgn", "traffic model: fgn or onoff")
	fs.Float64Var(&cfg.hurst, "hurst", 0.8, "Hurst parameter of the generated traffic")
	fs.Uint64Var(&cfg.seed, "seed", 1, "traffic generator seed")
	fs.StringVar(&cfg.estimator, "estimator", "aggvar",
		"per-stream online Hurst estimator (aggvar, wavelet, rs) or off")
	logFormat := fs.String("log-format", "text", "diagnostic log format: text or json")
	logLevel := fs.String("log-level", "warn", "minimum diagnostic log level: debug, info, warn or error (run milestones are debug)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	cfg.logger = logger
	if err := cfg.checkWire(); err != nil {
		return err
	}
	if cfg.compare != "" {
		return runCompare(cfg, out)
	}
	res, err := runLoad(cfg, out)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ingest:   %d ticks in %v -> %.3g ticks/s aggregate\n",
		res.ticks, res.elapsed.Round(time.Millisecond), res.ticksPerSec())
	fmt.Fprintf(out, "kept:     %d samples (%.3g%% of ticks)\n",
		res.kept, 100*float64(res.kept)/float64(res.ticks))
	if line := latencyLine(res.lat, cfg.wireLabel()); line != "" {
		fmt.Fprintln(out, line)
	}
	if dr := res.drift; dr != nil {
		fmt.Fprintf(out, "hurst:    %s estimator, generated H %.2f\n", dr.method, cfg.hurst)
		if dr.inputN > 0 {
			fmt.Fprintf(out, "          input  H %.3f (%d/%d streams resolved)\n", dr.inputH, dr.inputN, cfg.streams)
		} else {
			fmt.Fprintf(out, "          input  H unresolved (stream too short to regress; raise -ticks)\n")
		}
		if dr.keptN > 0 {
			fmt.Fprintf(out, "          kept   H %.3f (%d/%d streams resolved)\n", dr.keptH, dr.keptN, cfg.streams)
			fmt.Fprintf(out, "          drift  %+.3f (post minus pre, %d streams)\n", dr.driftH, dr.driftN)
		} else {
			fmt.Fprintf(out, "          kept   H unresolved (too few kept samples; raise -ticks or the sampling rate)\n")
		}
	}
	return nil
}

// driver abstracts the two targets: the in-process hub and the HTTP
// daemon. Per-stream call order matters (ticks must stay sequential);
// different streams are driven fully in parallel. The group methods
// mirror the stream ones for -compare mode. drain flushes transport
// state after the ingest phase — the session wire closes its
// long-lived connections there and folds their kept totals in; every
// other target is a no-op.
type driver interface {
	create(id string, spec sampling.Spec, estimator estimate.Method) error
	offer(id string, batch []float64) (kept int, err error)
	hurst(id string) (*sampling.HurstSummary, error)
	finish(id string) error
	drain() (kept int64, err error)

	createGroup(id string, specs []sampling.Spec, estimator estimate.Method) error
	offerGroup(id string, batch []float64) (kept int, err error)
	comparison(id string) (sampling.Comparison, error)
	finishGroup(id string) error
}

type directDriver struct{ hub *hub.Hub }

func (d directDriver) create(id string, spec sampling.Spec, estimator estimate.Method) error {
	if estimator != "" {
		return d.hub.Create(id, spec, sampling.WithEstimator(estimator))
	}
	return d.hub.Create(id, spec)
}
func (d directDriver) offer(id string, batch []float64) (int, error) {
	return d.hub.OfferBatch(id, batch)
}
func (d directDriver) hurst(id string) (*sampling.HurstSummary, error) {
	sum, err := d.hub.Snapshot(id)
	if err != nil {
		return nil, err
	}
	return sum.Hurst, nil
}
func (d directDriver) drain() (int64, error) { return 0, nil }
func (d directDriver) finish(id string) error {
	// A deferred engine error (e.g. a fixed-size draw over a shorter
	// stream) is a property of the workload, not a harness failure —
	// the daemon's DELETE tolerates it the same way. Only a missing
	// stream means the run itself went wrong.
	_, _, err := d.hub.Finish(id)
	if errors.Is(err, hub.ErrStreamNotFound) {
		return err
	}
	return nil
}

func (d directDriver) createGroup(id string, specs []sampling.Spec, estimator estimate.Method) error {
	if estimator != "" {
		return d.hub.CreateGroup(id, specs, sampling.WithEstimator(estimator))
	}
	return d.hub.CreateGroup(id, specs)
}
func (d directDriver) offerGroup(id string, batch []float64) (int, error) {
	return d.offer(id, batch)
}
func (d directDriver) comparison(id string) (sampling.Comparison, error) {
	return d.hub.GroupSnapshot(id)
}
func (d directDriver) finishGroup(id string) error {
	_, _, err := d.hub.FinishGroup(id)
	if errors.Is(err, hub.ErrStreamNotFound) {
		return err
	}
	return nil
}

type httpDriver struct {
	base   string
	client *http.Client
	wire   string

	// Ingest encoders reuse buffers: bufs pools the per-batch encode
	// buffers of the text and binary wires, sessions holds one
	// long-lived frame stream per stream or group for the session wire
	// (opened lazily on first offer, closed and harvested by drain).
	// sessClient has no timeout — a session lives as long as its
	// stream's ingest does.
	bufs       sync.Pool
	sessMu     sync.Mutex
	sessions   map[string]*wireSession
	sessClient *http.Client
}

// wireSession is one live session-mode connection: frames go into the
// pipe (the in-flight POST body), and the response — total kept, or
// the daemon's error — arrives on done once the writer side closes.
type wireSession struct {
	pw   *io.PipeWriter
	enc  *wire.Encoder
	done chan sessionResult
}

type sessionResult struct {
	kept int64
	err  error
}

func (d *httpDriver) do(method, url string, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (d *httpDriver) doJSON(method, url string, body []byte) ([]byte, error) {
	return d.do(method, url, "application/json", body)
}

// encodeBatch renders one tick batch under the configured wire into
// buf — reused across calls, so steady-state ingest encodes without
// allocating — and returns the bytes plus the content type to send
// them under. Per-POST binary frames leave the id empty: the URL
// already routes them, and the server accepts an empty embedded id.
func (d *httpDriver) encodeBatch(buf []byte, batch []float64) ([]byte, string, error) {
	switch d.wire {
	case "text":
		for i, v := range batch {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		return buf, "text/plain", nil
	case "binary":
		buf, err := wire.AppendFrame(buf, "", batch)
		return buf, wire.ContentType, err
	default: // json
		buf = append(buf, '[')
		for i, v := range batch {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, ']')
		return buf, "application/json", nil
	}
}

// postBatch sends one encoded batch to url and returns the response
// body. The encode buffer comes from (and returns to) the pool; it is
// free for reuse once do returns because the request body has been
// fully written by then.
func (d *httpDriver) postBatch(url string, batch []float64) ([]byte, error) {
	bp := d.bufs.Get().(*[]byte)
	defer d.bufs.Put(bp)
	buf, ctype, err := d.encodeBatch((*bp)[:0], batch)
	if err != nil {
		return nil, err
	}
	*bp = buf
	return d.do(http.MethodPost, url, ctype, buf)
}

func parseKept(data []byte) (int, error) {
	var resp struct {
		Kept int `json:"kept"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, err
	}
	return resp.Kept, nil
}

func (d *httpDriver) create(id string, spec sampling.Spec, estimator estimate.Method) error {
	req := map[string]any{"spec": spec}
	if estimator != "" {
		req["estimator"] = string(estimator)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, err = d.doJSON(http.MethodPut, d.base+"/v1/streams/"+id, body)
	return err
}

func (d *httpDriver) hurst(id string) (*sampling.HurstSummary, error) {
	data, err := d.doJSON(http.MethodGet, d.base+"/v1/streams/"+id+"/hurst", nil)
	if err != nil {
		return nil, err
	}
	var hs sampling.HurstSummary
	if err := json.Unmarshal(data, &hs); err != nil {
		return nil, err
	}
	return &hs, nil
}

func (d *httpDriver) offer(id string, batch []float64) (int, error) {
	if d.wire == "session" {
		return d.offerSession(id, batch)
	}
	data, err := d.postBatch(d.base+"/v1/streams/"+id+"/ticks", batch)
	if err != nil {
		return 0, err
	}
	return parseKept(data)
}

// offerSession writes one frame into the id's long-lived session
// connection. Kept counts are only known when the session closes, so
// every offer reports 0 and drain folds the daemon's total in.
func (d *httpDriver) offerSession(id string, batch []float64) (int, error) {
	s, err := d.session(id)
	if err != nil {
		return 0, err
	}
	if err := s.enc.Encode(id, batch); err != nil {
		// A broken pipe here usually means the daemon already answered
		// (an error response closes the body mid-stream) — surface its
		// verdict rather than the bare pipe error when it has arrived.
		select {
		case res := <-s.done:
			if res.err != nil {
				return 0, res.err
			}
		default:
		}
		return 0, err
	}
	return 0, nil
}

// session returns the live session for id, opening it on first use: a
// POST /v1/session whose body is the write end of a pipe, with a
// goroutine waiting on the daemon's end-of-stream response. hammer
// guarantees a single writer per id, so the encoder needs no lock;
// the map does.
func (d *httpDriver) session(id string) (*wireSession, error) {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	if s, ok := d.sessions[id]; ok {
		return s, nil
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/session", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	s := &wireSession{pw: pw, enc: wire.NewEncoder(pw), done: make(chan sessionResult, 1)}
	go func() {
		resp, err := d.sessClient.Do(req)
		if err != nil {
			pr.CloseWithError(err) // unblock any in-flight Encode
			s.done <- sessionResult{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			s.done <- sessionResult{err: err}
			return
		}
		if resp.StatusCode/100 != 2 {
			s.done <- sessionResult{err: fmt.Errorf("POST %s/v1/session: %s: %s",
				d.base, resp.Status, strings.TrimSpace(string(data)))}
			return
		}
		var body struct {
			Kept int64 `json:"kept"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			s.done <- sessionResult{err: err}
			return
		}
		s.done <- sessionResult{kept: body.Kept}
	}()
	d.sessions[id] = s
	return s, nil
}

// drain closes every live session and folds the daemon's totals in. A
// no-op for every other wire (and for runs that never offered).
func (d *httpDriver) drain() (int64, error) {
	d.sessMu.Lock()
	sessions := d.sessions
	d.sessions = map[string]*wireSession{}
	d.sessMu.Unlock()
	var kept int64
	var errs []error
	for id, s := range sessions {
		s.pw.Close()
		res := <-s.done
		if res.err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", id, res.err))
			continue
		}
		kept += res.kept
	}
	return kept, errors.Join(errs...)
}

func (d *httpDriver) finish(id string) error {
	_, err := d.doJSON(http.MethodDelete, d.base+"/v1/streams/"+id, nil)
	return err
}

func (d *httpDriver) createGroup(id string, specs []sampling.Spec, estimator estimate.Method) error {
	req := map[string]any{"specs": specs}
	if estimator != "" {
		req["estimator"] = string(estimator)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, err = d.doJSON(http.MethodPut, d.base+"/v1/groups/"+id, body)
	return err
}

// offerGroup posts one batch to a group. The session wire needs no
// group route: frames are routed by id, and the daemon's one namespace
// resolves a group id as readily as a stream id.
func (d *httpDriver) offerGroup(id string, batch []float64) (int, error) {
	if d.wire == "session" {
		return d.offerSession(id, batch)
	}
	data, err := d.postBatch(d.base+"/v1/groups/"+id+"/ticks", batch)
	if err != nil {
		return 0, err
	}
	return parseKept(data)
}

func (d *httpDriver) comparison(id string) (sampling.Comparison, error) {
	data, err := d.doJSON(http.MethodGet, d.base+"/v1/groups/"+id, nil)
	if err != nil {
		return sampling.Comparison{}, err
	}
	var cmp sampling.Comparison
	if err := json.Unmarshal(data, &cmp); err != nil {
		return sampling.Comparison{}, err
	}
	return cmp, nil
}

func (d *httpDriver) finishGroup(id string) error {
	_, err := d.doJSON(http.MethodDelete, d.base+"/v1/groups/"+id, nil)
	return err
}

// baseSeries generates the shared traffic series. Length is capped at
// 2^18 ticks; longer streams replay it cyclically — the load generator
// measures ingest, and 262k ticks of exact fGn is plenty of burstiness
// per revolution.
func baseSeries(cfg loadConfig) ([]float64, error) {
	n := cfg.ticks
	if n > 1<<18 {
		n = 1 << 18
	}
	if n < 16 {
		n = 16
	}
	rng := dist.NewRand(cfg.seed)
	switch cfg.traffic {
	case "fgn":
		gen, err := lrd.NewFGN(cfg.hurst, n, 10, 2)
		if err != nil {
			return nil, err
		}
		return gen.Generate(rng), nil
	case "onoff":
		alpha := lrd.AlphaFromH(cfg.hurst)
		return traffic.GenerateOnOff(traffic.OnOffConfig{
			Sources:  32,
			AlphaOn:  alpha,
			AlphaOff: alpha,
			MeanOn:   10,
			MeanOff:  20,
			Rate:     1,
			Ticks:    n,
		}, rng)
	default:
		return nil, fmt.Errorf("unknown traffic model %q (fgn or onoff)", cfg.traffic)
	}
}

// specAcceptsSeed probes whether the spec's technique takes a seed
// parameter, by building a throwaway engine with one: randomized
// techniques accept it, deterministic ones reject it with a
// *sampling.ParamError.
func specAcceptsSeed(spec sampling.Spec) bool {
	_, err := sampling.New(spec.With("seed", "1"))
	var pe *sampling.ParamError
	return !(errors.As(err, &pe) && strings.Contains(pe.Param, "seed"))
}

// runLoad creates the streams, hammers the target from cfg.workers
// goroutines, finishes every stream and returns what the ingest phase
// (creation and teardown excluded) achieved.
func runLoad(cfg loadConfig, out io.Writer) (loadResult, error) {
	if cfg.streams < 1 || cfg.ticks < 1 || cfg.batch < 1 || cfg.workers < 1 {
		return loadResult{}, fmt.Errorf("streams, ticks, batch and workers must all be >= 1")
	}
	spec, err := sampling.Parse(cfg.spec)
	if err != nil {
		return loadResult{}, err
	}
	method := cfg.estimatorMethod()
	if method != "" {
		// Fail on a typo'd method before any stream exists.
		if _, err := estimate.New(method); err != nil {
			return loadResult{}, err
		}
	}
	base, err := baseSeries(cfg)
	if err != nil {
		return loadResult{}, err
	}

	d, mode := newDriver(cfg)
	fmt.Fprintf(out, "target:   %s, %d streams x %d ticks, batch %d, %d workers, spec %s\n",
		mode, cfg.streams, cfg.ticks, cfg.batch, cfg.workers, spec)
	fmt.Fprintf(out, "traffic:  %s (H=%.2f), base series %d ticks\n", cfg.traffic, cfg.hurst, len(base))

	seedable := specAcceptsSeed(spec)
	ids := make([]string, cfg.streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("load-%05d", i)
		// Randomized techniques get a distinct seed per stream — without
		// one, N copies of the default seed would keep/drop in lockstep
		// and the load would be degenerate. Seedless techniques (which
		// reject the parameter) keep the spec as-is.
		s := spec
		if seedable {
			s = spec.With("seed", fmt.Sprint(cfg.seed+uint64(i)))
		}
		if err := d.create(ids[i], s, method); err != nil {
			return loadResult{}, fmt.Errorf("creating %s: %w", ids[i], err)
		}
	}
	cfg.log().Debug("streams created", "count", len(ids), "wire", cfg.wireLabel())

	lat := obs.NewBareHistogram(latencyBuckets())
	ticks, kept, elapsed, err := hammer(cfg, ids, base, timedOffer(lat, d.offer))
	if err != nil {
		return loadResult{}, err
	}
	// The session wire only reports kept totals when its connections
	// close; drain inside the timed window so ticks/s pays the full
	// transport cost, end of stream included.
	dstart := time.Now()
	dkept, err := d.drain()
	if err != nil {
		return loadResult{}, err
	}
	kept += dkept
	elapsed += time.Since(dstart)
	cfg.log().Debug("ingest done", "ticks", ticks, "kept", kept, "elapsed", elapsed)
	// Read the Hurst blocks before teardown: Finish removes the streams.
	var dr *driftReport
	if method != "" {
		dr = &driftReport{method: method}
		for _, id := range ids {
			hs, err := d.hurst(id)
			if err != nil {
				return loadResult{}, fmt.Errorf("hurst %s: %w", id, err)
			}
			if hs == nil {
				continue
			}
			if hs.Input.OK {
				dr.inputN++
				dr.inputH += hs.Input.H
			}
			if hs.Kept.OK {
				dr.keptN++
				dr.keptH += hs.Kept.H
			}
			if !math.IsNaN(hs.Drift) {
				dr.driftN++
				dr.driftH += hs.Drift
			}
		}
		if dr.inputN > 0 {
			dr.inputH /= float64(dr.inputN)
		}
		if dr.keptN > 0 {
			dr.keptH /= float64(dr.keptN)
		}
		if dr.driftN > 0 {
			dr.driftH /= float64(dr.driftN)
		}
	}
	for _, id := range ids {
		if err := d.finish(id); err != nil {
			return loadResult{}, fmt.Errorf("finishing %s: %w", id, err)
		}
	}
	return loadResult{ticks: ticks, kept: kept, elapsed: elapsed, drift: dr, lat: lat}, nil
}

// newDriver builds the run's target from the config: the in-process
// hub, or an HTTP client against a running daemon.
func newDriver(cfg loadConfig) (driver, string) {
	if cfg.direct {
		return directDriver{hub: hub.New()}, "direct"
	}
	addr := cfg.addr
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	d := &httpDriver{
		base:     addr,
		client:   &http.Client{Timeout: 30 * time.Second},
		wire:     cfg.wireName(),
		sessions: map[string]*wireSession{},
		// Sessions outlive any per-request deadline by design: one
		// connection carries a whole run's frames.
		sessClient: &http.Client{},
	}
	d.bufs.New = func() any { return new([]byte) }
	return d, addr + " (" + d.wire + " wire)"
}

// runCompare is -compare mode: every "stream" becomes a comparison
// group fanning the same traffic out to each of the given specs, and
// the report is a per-technique fidelity table — kept ratio, mean and
// variance bias against the unsampled input, and (with an estimator)
// the pre- vs post-sampling Hurst drift — aggregated over the groups.
func runCompare(cfg loadConfig, out io.Writer) error {
	if cfg.streams < 1 || cfg.ticks < 1 || cfg.batch < 1 || cfg.workers < 1 {
		return fmt.Errorf("streams, ticks, batch and workers must all be >= 1")
	}
	var specs []sampling.Spec
	for _, s := range strings.Split(cfg.compare, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		spec, err := sampling.Parse(s)
		if err != nil {
			return fmt.Errorf("-compare: %w", err)
		}
		specs = append(specs, spec)
	}
	if len(specs) < 2 {
		return fmt.Errorf("-compare needs at least two ';'-separated specs, got %d", len(specs))
	}
	method := cfg.estimatorMethod()
	if method != "" {
		if _, err := estimate.New(method); err != nil {
			return err
		}
	}
	base, err := baseSeries(cfg)
	if err != nil {
		return err
	}
	d, mode := newDriver(cfg)
	fmt.Fprintf(out, "target:   %s, %d groups x %d ticks x %d techniques, batch %d, %d workers\n",
		mode, cfg.streams, cfg.ticks, len(specs), cfg.batch, cfg.workers)
	fmt.Fprintf(out, "traffic:  %s (H=%.2f), base series %d ticks\n", cfg.traffic, cfg.hurst, len(base))

	seedable := make([]bool, len(specs))
	for i, spec := range specs {
		seedable[i] = specAcceptsSeed(spec)
	}
	ids := make([]string, cfg.streams)
	for g := range ids {
		ids[g] = fmt.Sprintf("cmp-%05d", g)
		members := make([]sampling.Spec, len(specs))
		for i, spec := range specs {
			members[i] = spec
			// Distinct seeds per group and member, as in single-spec
			// mode, so randomized members never keep/drop in lockstep.
			if seedable[i] {
				members[i] = spec.With("seed", fmt.Sprint(cfg.seed+uint64(g*len(specs)+i)))
			}
		}
		if err := d.createGroup(ids[g], members, method); err != nil {
			return fmt.Errorf("creating %s: %w", ids[g], err)
		}
	}
	cfg.log().Debug("groups created", "count", len(ids), "techniques", len(specs), "wire", cfg.wireLabel())
	lat := obs.NewBareHistogram(latencyBuckets())
	ticks, kept, elapsed, err := hammer(cfg, ids, base, timedOffer(lat, d.offerGroup))
	if err != nil {
		return err
	}
	dstart := time.Now()
	dkept, err := d.drain()
	if err != nil {
		return err
	}
	kept += dkept
	elapsed += time.Since(dstart)
	cfg.log().Debug("ingest done", "ticks", ticks, "kept", kept, "elapsed", elapsed)

	// Fold the per-group fidelity blocks into one row per technique
	// before teardown: means over the groups where each score resolved.
	type agg struct {
		kept                int64
		mbSum, vbSum, hdSum float64
		mbN, vbN, hdN       int
	}
	aggs := make([]agg, len(specs))
	var inputSeen int64
	for _, id := range ids {
		cmp, err := d.comparison(id)
		if err != nil {
			return fmt.Errorf("comparison %s: %w", id, err)
		}
		if len(cmp.Members) != len(specs) {
			return fmt.Errorf("comparison %s has %d members, want %d", id, len(cmp.Members), len(specs))
		}
		inputSeen += int64(cmp.Seen)
		for i, m := range cmp.Members {
			a := &aggs[i]
			a.kept += int64(m.Summary.Kept)
			if v := m.Fidelity.MeanBias; !math.IsNaN(v) {
				a.mbSum += v
				a.mbN++
			}
			if v := m.Fidelity.VarianceBias; !math.IsNaN(v) {
				a.vbSum += v
				a.vbN++
			}
			if v := m.Fidelity.HurstDrift; !math.IsNaN(v) {
				a.hdSum += v
				a.hdN++
			}
		}
	}
	for _, id := range ids {
		if err := d.finishGroup(id); err != nil {
			return fmt.Errorf("finishing %s: %w", id, err)
		}
	}

	rate := 0.0
	if elapsed > 0 {
		rate = float64(ticks) / elapsed.Seconds()
	}
	fmt.Fprintf(out, "ingest:   %d input ticks in %v -> %.3g ticks/s (x%d fan-out: %.3g engine ticks/s)\n",
		ticks, elapsed.Round(time.Millisecond), rate, len(specs), rate*float64(len(specs)))
	fmt.Fprintf(out, "kept:     %d samples across all techniques\n", kept)
	if line := latencyLine(lat, cfg.wireLabel()); line != "" {
		fmt.Fprintln(out, line)
	}
	cell := func(sum float64, n int) string {
		if n == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.4f", sum/float64(n))
	}
	fmt.Fprintf(out, "\n%-36s %8s %11s %11s %9s\n", "technique", "kept%", "mean-bias", "var-bias", "h-drift")
	for i, spec := range specs {
		a := aggs[i]
		keptPct := math.NaN()
		if inputSeen > 0 {
			keptPct = 100 * float64(a.kept) / float64(inputSeen)
		}
		fmt.Fprintf(out, "%-36s %7.3f%% %11s %11s %9s\n",
			spec.String(), keptPct, cell(a.mbSum, a.mbN), cell(a.vbSum, a.vbN), cell(a.hdSum, a.hdN))
	}
	if method == "" {
		fmt.Fprintln(out, "(h-drift needs an estimator; it was disabled for this run)")
	}
	return nil
}

// hammer drives batches at the target from cfg.workers goroutines and
// returns the ingest totals. offer is the per-batch call — stream or
// group ingest. Each worker owns a disjoint set of ids (single writer
// per stream/group) and round-robins batches across them, phase-rotated
// so concurrent ids replay different parts of the base series at any
// instant.
func hammer(cfg loadConfig, ids []string, base []float64, offer func(id string, batch []float64) (int, error)) (ticks, kept int64, elapsed time.Duration, err error) {
	var totalKept, totalTicks atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			type cursor struct {
				id        string
				pos, left int
			}
			var mine []cursor
			for i := w; i < len(ids); i += cfg.workers {
				mine = append(mine, cursor{id: ids[i], pos: (i * 7919) % len(base), left: cfg.ticks})
			}
			for live := len(mine); live > 0; {
				live = 0
				for j := range mine {
					c := &mine[j]
					if c.left == 0 {
						continue
					}
					n := cfg.batch
					if n > c.left {
						n = c.left
					}
					if n > len(base)-c.pos {
						n = len(base) - c.pos
					}
					kept, err := offer(c.id, base[c.pos:c.pos+n])
					if err != nil {
						fail(err)
						return
					}
					totalKept.Add(int64(kept))
					totalTicks.Add(int64(n))
					c.left -= n
					c.pos = (c.pos + n) % len(base)
					if c.left > 0 {
						live++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(start)
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	return totalTicks.Load(), totalKept.Load(), elapsed, nil
}
