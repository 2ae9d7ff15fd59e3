package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/sampling"
	"repro/sampling/estimate"
	"repro/sampling/hub"
	"repro/sampling/persist"
	"repro/sampling/wire"
)

// span is one timed call into a layer, recorded from outside it. A
// span's children are the spans naming it as parent; where a child is
// a shadow object fed the same frame (the engine behind a hub entry,
// the members behind a group), the child runs beside its parent rather
// than inside it, and the parent's self time is its duration minus the
// children's: the part of the call the shadow does not account for.
type span struct {
	name       string
	parent     int // index of the parent span; -1 for a root
	frame      int // replayed frame the span belongs to; -1 for none
	start, end time.Duration
}

// tracer keeps spans in memory until the replay ends. When off, every
// method is a no-op, which is the untraced replay the overhead is
// measured against.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func (t *tracer) open(name string, parent, frame int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, frame: frame})
	return len(t.spans) - 1
}

func (t *tracer) start(i int) {
	if t.on {
		t.spans[i].start = time.Since(t.base)
	}
}

func (t *tracer) stop(i int) {
	if t.on {
		t.spans[i].end = time.Since(t.base)
	}
}

// begin opens and starts a span.
func (t *tracer) begin(name string, parent, frame int) int {
	i := t.open(name, parent, frame)
	t.start(i)
	return i
}

// write dumps the spans as tab-separated lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\tname\tparent\tframe\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.parent, s.frame, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums span durations and self times by name.
type layerTimes struct {
	total, self map[string]time.Duration
	count       map[string]int
}

func (t *tracer) times() layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.total[s.name] += d
		lt.self[s.name] += d - child[i]
		lt.count[s.name]++
	}
	return lt
}

// framesReader streams the replayed frames back to back without
// copying them into one buffer.
type framesReader struct {
	frames [][]byte
	off    int
}

func (r *framesReader) Read(p []byte) (int, error) {
	for len(r.frames) > 0 && r.off == len(r.frames[0]) {
		r.frames, r.off = r.frames[1:], 0
	}
	if len(r.frames) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.frames[0][r.off:])
	r.off += n
	return n, nil
}

// replayOrder lists the frames a cycle sends in its first rounds, in
// send order, with the entity each belongs to.
func (b *bench) replayOrder(rounds int) (frames [][]byte, ents []int) {
	for r := 0; r < rounds; r++ {
		for c := range b.fs.connEnts {
			for _, e := range b.fs.connEnts[c] {
				frames = append(frames, b.fs.frames[r%b.shape.reps][e])
				ents = append(ents, e)
			}
		}
	}
	return frames, ents
}

// target is the hub under replay plus its shadow engines: for each
// entity the same engine the hub holds, built from the same spec and
// seed, fed the same frames.
type target struct {
	hub     *hub.Hub
	engines []*sampling.Engine
}

func (b *bench) newTarget() (*target, error) {
	t := &target{hub: hub.New()}
	for _, d := range b.defs {
		spec, err := sampling.Parse(d.spec)
		if err != nil {
			return nil, err
		}
		if err := t.hub.Create(d.id, spec, engineOpts(d)...); err != nil {
			return nil, err
		}
		eng, err := sampling.New(spec, engineOpts(d)...)
		if err != nil {
			return nil, err
		}
		t.engines = append(t.engines, eng)
	}
	return t, nil
}

// mainPass decodes every replayed frame with a wire.Decoder and offers
// it to the hub and to the entity's shadow, alternating which goes
// first so neither always runs on warm caches. It returns the pass's
// wall time and the target, for the persist layer to checkpoint.
func (b *bench) mainPass(tr *tracer, frames [][]byte, ents []int) (time.Duration, *target, error) {
	t, err := b.newTarget()
	if err != nil {
		return 0, nil, err
	}
	dec := wire.NewDecoder(&framesReader{frames: frames}, 0)
	runtime.GC()
	tr.base = time.Now()
	t0 := time.Now()
	for f, e := range ents {
		root := tr.begin("frame", -1, f)
		sp := tr.begin("wire.decode", root, f)
		id, ticks, err := dec.ReadFrame()
		tr.stop(sp)
		if err != nil {
			return 0, nil, err
		}
		hs := tr.open("hub.offer", root, f)
		offerHub := func() error {
			tr.start(hs)
			_, err := t.hub.OfferBatch(id, ticks)
			tr.stop(hs)
			return err
		}
		if f%2 == 0 {
			if err := offerHub(); err != nil {
				return 0, nil, err
			}
		}
		ss := tr.begin("shadow.offer", hs, f)
		t.engines[e].OfferBatch(ticks)
		tr.stop(ss)
		if f%2 == 1 {
			if err := offerHub(); err != nil {
				return 0, nil, err
			}
		}
		tr.stop(root)
	}
	return time.Since(t0), t, nil
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// heapGrowth is the live heap fn leaves behind, measured across GCs.
func heapGrowth(fn func() any) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep := fn()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(keep)
	return float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
}

// replay is the traced run: the workload's frames replayed in-process
// through each layer's public functions, timed from outside. It
// returns every per-layer metric and writes the spans to spansPath.
func replay(b *bench, spansPath string, ingestP50ms float64) (map[string]metric, error) {
	s := b.shape
	frames, ents := b.replayOrder(s.replayRnds)
	nf := float64(len(frames))
	m := map[string]metric{}

	// Tracing overhead: after a warm-up, the same pass untraced and
	// traced, five times each, alternating which runs first; the last
	// traced pass keeps its spans.
	if _, _, err := b.mainPass(&tracer{}, frames, ents); err != nil {
		return nil, err
	}
	var plain, traced []float64
	var tr *tracer
	var last *target
	for i := 0; i < 10; i++ {
		on := i%4 == 1 || i%4 == 2
		t := &tracer{on: on}
		if on {
			t.spans = make([]span, 0, 4*len(frames))
		}
		d, tg, err := b.mainPass(t, frames, ents)
		if err != nil {
			return nil, err
		}
		if on {
			traced, tr, last = append(traced, float64(d)), t, tg
		} else {
			plain = append(plain, float64(d))
		}
	}
	m["trace.overhead_ns_per_frame"] = metric{(median(traced) - median(plain)) / nf, "ns"}
	lt := tr.times()
	m["wire.decode_ns_per_frame"] = metric{float64(lt.total["wire.decode"]) / nf, "ns"}
	m["wire.frame_bytes"] = metric{float64(b.fs.frameSize), "B"}
	m["hub.offer_self_ns_per_frame"] = metric{float64(lt.self["hub.offer"]) / nf, "ns"}
	inProc := float64(lt.total["wire.decode"]+lt.total["hub.offer"]) / nf / 1e3 * float64(s.perPost)
	m["http.self_us_per_request"] = metric{ingestP50ms*1e3 - inProc, "us"}

	// Allocations of decode alone, then of decode plus hub offers.
	var decodeErr error
	decodeAllocs := mallocs(func() {
		dec := wire.NewDecoder(&framesReader{frames: frames}, 0)
		for range frames {
			if _, _, decodeErr = dec.ReadFrame(); decodeErr != nil {
				return
			}
		}
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	m["wire.decode_allocs_per_frame"] = metric{float64(decodeAllocs) / nf, "count"}
	var hubErr error
	var hubAllocs uint64
	heap := heapGrowth(func() any {
		t, err := b.newTarget()
		if err != nil {
			hubErr = err
			return nil
		}
		t.engines = nil
		hubAllocs = mallocs(func() {
			dec := wire.NewDecoder(&framesReader{frames: frames}, 0)
			for range frames {
				id, ticks, err := dec.ReadFrame()
				if err == nil {
					_, err = t.hub.OfferBatch(id, ticks)
				}
				if err != nil {
					hubErr = err
					return
				}
			}
		})
		return t.hub
	})
	if hubErr != nil {
		return nil, hubErr
	}
	m["hub.offer_allocs_per_frame"] = metric{(float64(hubAllocs) - float64(decodeAllocs)) / nf, "count"}
	m["hub.heap_bytes_per_stream"] = metric{heap / float64(s.entities), "B"}

	// The persist layer over the replayed hub.
	if err := persistLayer(tr, last.hub, filepath.Join(b.workDir, "replay.ckpt"), s.entities, m); err != nil {
		return nil, err
	}
	// Probes of the layers below the hub, on this workload's ticks.
	if err := b.probeEngines(tr, m); err != nil {
		return nil, err
	}
	if err := b.probeEstimator(tr, m); err != nil {
		return nil, err
	}
	if err := b.probeGroups(tr, m); err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "replay: %d frames, %d spans written to %s\n", len(frames), len(tr.spans), spansPath)
	return m, nil
}

func persistLayer(tr *tracer, h *hub.Hub, path string, entities int, m map[string]metric) error {
	root := tr.begin("persist", -1, -1)
	sp := tr.begin("hub.checkpoint", root, -1)
	ck, err := h.Checkpoint()
	tr.stop(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("persist.write", root, -1)
	err = persist.WriteFile(path, ck)
	tr.stop(sp)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	sp = tr.begin("persist.read", root, -1)
	back, err := persist.ReadFile(path)
	tr.stop(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("hub.restore", root, -1)
	err = hub.New().Restore(back)
	tr.stop(sp)
	if err != nil {
		return err
	}
	tr.stop(root)
	lt := tr.times()
	m["hub.checkpoint_ns_per_stream"] = metric{float64(lt.total["hub.checkpoint"]) / float64(entities), "ns"}
	m["persist.write_s"] = metric{lt.total["persist.write"].Seconds(), "s"}
	m["persist.read_s"] = metric{lt.total["persist.read"].Seconds(), "s"}
	m["hub.restore_s"] = metric{lt.total["hub.restore"].Seconds(), "s"}
	return nil
}

// probeEntities is the slice of the workload's entities the probes
// replay, each with every frame a cycle sends it.
func (b *bench) probeEntities(n int) []int {
	return b.checked[:min(n, len(b.checked))]
}

func (b *bench) probeTicks(e, r int) []float64 { return b.fs.ticks[r%b.shape.reps][e] }

// probeEngines feeds each technique's reference spec, as a bare
// sampling.Engine, the ticks of up to 64 of the workload's entities.
func (b *bench) probeEngines(tr *tracer, m map[string]metric) error {
	s := b.shape
	ps := b.probeEntities(64)
	for _, p := range probeSpecs {
		spec, err := sampling.Parse(p.spec)
		if err != nil {
			return err
		}
		build := func() ([]*sampling.Engine, error) {
			out := make([]*sampling.Engine, len(ps))
			for i := range out {
				if out[i], err = sampling.New(spec); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		engs, err := build()
		if err != nil {
			return err
		}
		name := "engine." + p.label
		offer := name + ".offer"
		root := tr.begin(name, -1, -1)
		var ticks, kept int
		for r := 0; r < s.rounds; r++ {
			for i, e := range ps {
				t := b.probeTicks(e, r)
				sp := tr.begin(offer, root, r*len(ps)+i)
				kept += engs[i].OfferBatch(t)
				tr.stop(sp)
				ticks += len(t)
			}
		}
		tr.stop(root)
		// State size is taken live; the kept ratio counts the samples
		// only Finish decides (the simple random draws).
		var state int
		for _, eng := range engs {
			blob, err := eng.MarshalState()
			if err != nil {
				return err
			}
			state += len(blob)
			tail, err := eng.Finish()
			if err != nil {
				return err
			}
			kept += len(tail)
		}
		fresh, err := build()
		if err != nil {
			return err
		}
		allocs := mallocs(func() {
			for r := 0; r < s.rounds; r++ {
				for i, e := range ps {
					fresh[i].OfferBatch(b.probeTicks(e, r))
				}
			}
		})
		lt := tr.times()
		frames := float64(s.rounds * len(ps))
		m[name+".offer_ns_per_ktick"] = metric{float64(lt.total[offer]) / float64(ticks) * 1e3, "ns"}
		m[name+".allocs_per_frame"] = metric{float64(allocs) / frames, "count"}
		m[name+".kept_ratio"] = metric{float64(kept) / float64(ticks), "ratio"}
		m["persist.bytes_per_stream."+p.label] = metric{float64(state) / float64(len(engs)), "B"}
	}
	return nil
}

// probeEstimator feeds one aggregated-variance estimator per probed
// entity every tick that entity receives. The heap is measured on a
// separate untraced feed, so the tracer's span appends do not count.
func (b *bench) probeEstimator(tr *tracer, m map[string]metric) error {
	s := b.shape
	ps := b.probeEntities(64)
	feed := func(tr *tracer) ([]estimate.Estimator, int, error) {
		ests := make([]estimate.Estimator, len(ps))
		for i := range ests {
			var err error
			if ests[i], err = estimate.New(estimate.AggVar); err != nil {
				return nil, 0, err
			}
		}
		var ticks int
		root := tr.begin("estimate.aggvar", -1, -1)
		for r := 0; r < s.rounds; r++ {
			for i, e := range ps {
				t := b.probeTicks(e, r)
				sp := tr.begin("estimate.aggvar.tick", root, r*len(ps)+i)
				for _, v := range t {
					ests[i].Tick(v)
				}
				tr.stop(sp)
				ticks += len(t)
			}
		}
		tr.stop(root)
		return ests, ticks, nil
	}
	var feedErr error
	heap := heapGrowth(func() any {
		ests, _, err := feed(&tracer{})
		feedErr = err
		return ests
	})
	if feedErr != nil {
		return feedErr
	}
	_, ticks, err := feed(tr)
	if err != nil {
		return err
	}
	lt := tr.times()
	m["estimate.aggvar.tick_ns"] = metric{float64(lt.total["estimate.aggvar.tick"]) / float64(ticks), "ns"}
	m["estimate.aggvar.heap_bytes"] = metric{heap / float64(len(ps)), "B"}
	return nil
}

// probeGroups feeds the paper's five-technique comparison group, with
// an aggvar estimator, the ticks of up to 16 entities, beside bare
// engines of its five members so the group's own share (the input
// side) separates from the members'.
func (b *bench) probeGroups(tr *tracer, m map[string]metric) error {
	s := b.shape
	ps := b.probeEntities(16)
	type probe struct {
		g       *sampling.Group
		members []*sampling.Engine
	}
	sp, err := parseSpecs(compareSpecs)
	if err != nil {
		return err
	}
	probes := make([]probe, len(ps))
	for i := range ps {
		if probes[i].g, err = sampling.NewGroup(sp, sampling.WithEstimator(estimate.AggVar)); err != nil {
			return err
		}
		for _, one := range sp {
			eng, err := sampling.New(one)
			if err != nil {
				return err
			}
			probes[i].members = append(probes[i].members, eng)
		}
	}
	root := tr.begin("group", -1, -1)
	var ticks int
	snaps := 0
	for r := 0; r < s.rounds; r++ {
		for i, e := range ps {
			t := b.probeTicks(e, r)
			f := r*len(ps) + i
			gs := tr.begin("group.offer", root, f)
			probes[i].g.OfferBatch(t)
			tr.stop(gs)
			for _, eng := range probes[i].members {
				sp := tr.begin("group.member.offer", gs, f)
				eng.OfferBatch(t)
				tr.stop(sp)
			}
			ticks += len(t)
			if r%4 == 3 {
				sp := tr.begin("group.snapshot", root, f)
				probes[i].g.Snapshot()
				tr.stop(sp)
				snaps++
			}
		}
	}
	tr.stop(root)
	lt := tr.times()
	kt := float64(ticks) / 1e3
	m["group.offer_ns_per_ktick"] = metric{float64(lt.total["group.offer"]) / kt, "ns"}
	m["group.self_ns_per_ktick"] = metric{float64(lt.self["group.offer"]) / kt, "ns"}
	m["group.snapshot_ns"] = metric{float64(lt.total["group.snapshot"]) / float64(lt.count["group.snapshot"]), "ns"}
	return nil
}
