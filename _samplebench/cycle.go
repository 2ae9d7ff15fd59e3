package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// bench is one run's fixed inputs: the workload, its generated frames,
// the references its outputs are checked against, and the clients
// that carry its traffic.
type bench struct {
	shape   shape
	defs    []streamDef
	fs      *frameSet
	checked []int
	refs    map[int]expected
	bin     string
	workDir string
	clients []*http.Client // the two connections; ingest takes the first s.conns, the reader the first
	reads   []string       // snapshot paths the open-loop reader cycles through
	ops     opCount
}

// opCount counts the run's operations and the ones that failed:
// transport errors, non-2xx replies and replies that do not accept
// what was sent.
type opCount struct{ attempted, failed atomic.Int64 }

// note counts one operation and passes its error through.
func (n *opCount) note(err error) error {
	n.attempted.Add(1)
	if err != nil {
		n.failed.Add(1)
	}
	return err
}

// restarts is how many shutdown/restore pairs each cycle times.
const restarts = 3

// cycle is what one daemon lifetime measured: set-up, ingest, then
// shutdowns with their final checkpoints, restores, and reads.
type cycle struct {
	setup, ingest     time.Duration
	shutdown, restore []float64 // seconds, one per restart
	ticks             int64
	cpu               time.Duration
	rss               float64
	ckptBytes         int64
	ingestLat         []float64 // ms per ingest request
	reads             readerStats
}

func (b *bench) url(addr, path string) string { return "http://" + addr + path }

func (b *bench) snapshotPath(e int) string { return "/v1/streams/" + b.defs[e].id + "/snapshot" }

func (b *bench) entityPath(e int) string { return "/v1/streams/" + b.defs[e].id }

// create registers every stream, spread over the clients.
func (b *bench) create(addr string) error {
	return parallel(b.clients, len(b.defs), func(c *http.Client, i int) error {
		d := b.defs[i]
		req := map[string]any{"spec": d.spec}
		if d.estimator != "" {
			req["estimator"] = d.estimator
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		_, err = do(c, http.MethodPut, b.url(addr, b.entityPath(i)), "application/json", body)
		return b.ops.note(err)
	})
}

// runCycle runs one daemon lifetime, restarts included, on a fresh
// checkpoint directory and checks its outputs.
func (b *bench) runCycle(k int) (c cycle, err error) {
	s := b.shape
	dir := filepath.Join(b.workDir, fmt.Sprintf("ckpt-%d", k))
	if err := os.RemoveAll(dir); err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	defer closeIdle(b.clients)

	d, err := startDaemon(b.bin, dir)
	if err != nil {
		return c, err
	}
	defer d.kill()
	if _, err := d.waitReady(); err != nil {
		return c, err
	}
	if err := b.create(d.addr); err != nil {
		return c, err
	}
	c.setup = time.Since(d.start)

	// Ingest, closed-loop.
	cpu0, err := d.cpuTime()
	if err != nil {
		return c, err
	}
	t0 := time.Now()
	lat, err := b.ingest(d.addr)
	c.ingest = time.Since(t0)
	if err != nil {
		return c, err
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return c, err
	}
	c.cpu = cpu1 - cpu0
	c.ingestLat = lat
	c.ticks = int64(s.entities) * int64(s.rounds) * int64(s.frameTicks)
	if c.rss, err = d.peakRSS(); err != nil {
		return c, err
	}

	pre, err := b.snapshots(d.addr)
	if err != nil {
		return c, err
	}
	want := int64(s.rounds) * int64(s.frameTicks)
	for e, doc := range pre {
		seen, err := seenOf(doc)
		if err != nil {
			return c, err
		}
		if seen != want {
			return c, mismatch("%s saw %d ticks, %d were sent", b.defs[e].id, seen, want)
		}
	}
	for _, e := range b.checked {
		if string(pre[e]) != string(b.refs[e].pre) {
			return c, mismatch("%s snapshot differs from the in-process reference:\n daemon    %s\n reference %s",
				b.defs[e].id, pre[e], b.refs[e].pre)
		}
	}

	// Restart on the same directory, several times: the first shutdown
	// follows live ingest, the later ones checkpoint the restored state.
	for i := 0; i < restarts; i++ {
		took, err := d.stop()
		if err != nil {
			return c, b.ops.note(err)
		}
		c.shutdown = append(c.shutdown, took.Seconds())
		closeIdle(b.clients)
		fi, err := os.Stat(filepath.Join(dir, "hub.ckpt"))
		if err != nil {
			return c, b.ops.note(fmt.Errorf("no checkpoint after shutdown: %w", err))
		}
		c.ckptBytes = fi.Size()
		if d, err = startDaemon(b.bin, dir); err != nil {
			return c, b.ops.note(err)
		}
		defer d.kill()
		if took, err = d.waitReady(); err != nil {
			return c, b.ops.note(err)
		}
		b.ops.note(nil)
		c.restore = append(c.restore, took.Seconds())
	}

	// Open-loop reads on the restored daemon. The benchmark collects
	// its own garbage first, so its collector does not delay the reader.
	urls := make([]string, len(b.reads))
	for i, p := range b.reads {
		urls[i] = b.url(d.addr, p)
	}
	runtime.GC()
	c.reads = readOpenLoop(b.clients[0], urls, readRate, s.reads)
	b.ops.attempted.Add(c.reads.attempts)
	b.ops.failed.Add(c.reads.failed)
	if c.reads.failed > 0 {
		return c, fmt.Errorf("%d of %d snapshot reads failed", c.reads.failed, c.reads.attempts)
	}

	post, err := b.snapshots(d.addr)
	if err != nil {
		return c, err
	}
	for e := range pre {
		if string(pre[e]) != string(post[e]) {
			return c, mismatch("%s changed across restart:\n before %s\n after  %s", b.defs[e].id, pre[e], post[e])
		}
	}
	if err := b.continueAndFinish(d.addr); err != nil {
		return c, err
	}
	if _, err := d.stop(); err != nil {
		return c, err
	}
	return c, nil
}

// ingest sends one cycle's frames: every stream receives s.rounds
// frames, replaying its s.reps distinct frames in order, in sessions
// of s.perPost frames, each connection owning its own streams. It
// returns each session's latency in ms.
func (b *bench) ingest(addr string) ([]float64, error) {
	s := b.shape
	lat := make([][]float64, s.conns)
	err := parallel(b.clients[:s.conns], s.conns, func(cl *http.Client, c int) error {
		ents := b.fs.connEnts[c]
		for r := 0; r < s.rounds; r++ {
			buf := b.fs.connBuf[r%s.reps][c]
			for off := 0; off < len(ents); off += s.perPost {
				n := min(s.perPost, len(ents)-off)
				body := buf[off*b.fs.frameSize : (off+n)*b.fs.frameSize]
				t := time.Now()
				err := post(cl, b.url(addr, "/v1/session"), body, int64(n), int64(n*s.frameTicks), true)
				lat[c] = append(lat[c], float64(time.Since(t))/1e6)
				if b.ops.note(err) != nil {
					return err
				}
			}
		}
		return nil
	})
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all, err
}

// snapshots reads every entity's live document, canonicalized.
func (b *bench) snapshots(addr string) ([][]byte, error) {
	out := make([][]byte, len(b.defs))
	err := parallel(b.clients, len(b.defs), func(c *http.Client, e int) error {
		data, err := do(c, http.MethodGet, b.url(addr, b.snapshotPath(e)), "", nil)
		if b.ops.note(err) != nil {
			return err
		}
		out[e], err = canon(data)
		return err
	})
	return out, err
}

// continueAndFinish sends each checked entity one more frame on the
// restored daemon, finishes it, and compares the DELETE reply with an
// uninterrupted in-process reference.
func (b *bench) continueAndFinish(addr string) error {
	s := b.shape
	rep := s.rounds % s.reps
	return parallel(b.clients, len(b.checked), func(c *http.Client, i int) error {
		e := b.checked[i]
		err := post(c, b.url(addr, b.entityPath(e)+"/ticks"), b.fs.frames[rep][e], 1, int64(s.frameTicks), false)
		if b.ops.note(err) != nil {
			return err
		}
		data, err := do(c, http.MethodDelete, b.url(addr, b.entityPath(e)), "", nil)
		if b.ops.note(err) != nil {
			return err
		}
		got, err := canon(data)
		if err != nil {
			return err
		}
		if string(got) != string(b.refs[e].final) {
			return mismatch("%s final reply after restart differs from an uninterrupted reference:\n daemon    %s\n reference %s",
				b.defs[e].id, got, b.refs[e].final)
		}
		return nil
	})
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile; a failed operation's +Inf
// sorts last, so it misses every latency limit.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}
