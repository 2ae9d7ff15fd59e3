package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/sampling/wire"
)

// The five-technique comparison of the paper, as one group spec list.
var compareSpecs = []string{
	"systematic:interval=100",
	"stratified:interval=100",
	"simple:n=1000",
	"bernoulli:rate=0.01",
	"bss:interval=100,L=5,eps=1.0",
}

// probeSpecs is the reference spec of each technique the engine layer
// is probed with, keyed by the label used in the per-layer metric names.
var probeSpecs = []struct{ label, spec string }{
	{"systematic", "systematic:interval=100"},
	{"stratified", "stratified:interval=100"},
	{"simple-n", "simple:n=1000"},
	{"simple-rate", "simple:rate=0.01"},
	{"bernoulli", "bernoulli:rate=0.01"},
	{"bss", "bss:interval=100,L=5,eps=1.0"},
}

// streamDef is one daemon-side stream.
type streamDef struct {
	id        string
	spec      string
	estimator string // "" or an estimate.Method
}

// shape is the size and load pattern of one workload.
type shape struct {
	name       string
	entities   int
	frameTicks int
	reps       int // distinct frames per entity; a cycle replays them in order
	rounds     int // frames each entity receives per cycle
	conns      int // ingest connections
	perPost    int // frames per session POST
	reads      int // open-loop snapshot reads per cycle, on the restored daemon
	replayRnds int // rounds the traced in-process replay covers
}

// readRate is the open-loop reader's rate, in reads per second.
const readRate = 1000

var shapes = map[string]shape{
	// Per-frame work: decode, hub routing over a working set larger
	// than the CPU caches, HTTP body reads.
	"session-fanin": {
		name: "session-fanin", entities: 4096, frameTicks: 512,
		reps: 4, rounds: 32, conns: 2, perPost: 128,
		reads: 2000, replayRnds: 4,
	},
	// The state layer: a mixed state's final checkpoint, then restart.
	"state-restart": {
		name: "state-restart", entities: 8192, frameTicks: 512,
		reps: 2, rounds: 32, conns: 2, perPost: 256,
		reads: 2000, replayRnds: 2,
	},
}

// tiny shrinks a shape for the benchmark's self-test: every phase still
// runs, on a few entities and frames.
func (s shape) tiny() shape {
	s.entities = max(s.entities/256, 8)
	s.rounds = max(s.rounds/8, 4)
	s.reps = min(s.reps, 2)
	s.perPost = 4
	s.reads = 20
	s.replayRnds = 2
	return s
}

// defs lays out the workload's streams. Seeds come from the run seed,
// so the same seed gives the same specs.
func (s shape) defs(rng *rand.Rand) []streamDef {
	out := make([]streamDef, s.entities)
	for i := range out {
		d := &out[i]
		switch s.name {
		case "session-fanin":
			d.id = fmt.Sprintf("s%05d", i)
			d.spec = []string{
				"systematic:interval=100",
				seeded("stratified:interval=100", rng),
				seeded("bernoulli:rate=0.01", rng),
				seeded("simple:n=1000", rng),
			}[i%4]
		case "state-restart":
			d.id = fmt.Sprintf("r%05d", i)
			// Shares out of 80: 44 bare systematic, 16 systematic+aggvar,
			// 1 reservoir, 18 BSS, 1 rate-mode simple random. The two
			// buffering techniques hold about half the checkpoint's bytes
			// even at 1 in 80 each.
			switch k := i % 80; {
			case k < 44:
				d.spec = "systematic:interval=100"
			case k < 60:
				d.spec = "systematic:interval=100"
				d.estimator = "aggvar"
			case k < 61:
				d.spec = seeded("simple:n=1000", rng)
			case k < 79:
				d.spec = "bss:interval=100,L=5,eps=1.0"
			default:
				d.spec = seeded("simple:rate=0.01", rng)
			}
		}
	}
	return out
}

func seeded(spec string, rng *rand.Rand) string {
	return fmt.Sprintf("%s,seed=%d", spec, rng.Uint32())
}

// baseSeries generates the traffic every frame is cut from: exact fGn
// with H=0.8.
func baseSeries(n int, rng *rand.Rand) ([]float64, error) {
	gen, err := lrd.NewFGN(0.8, n, 10, 2)
	if err != nil {
		return nil, err
	}
	return gen.Generate(rng), nil
}

// frameSet holds every encoded frame of a workload: entity e's frame
// for repetition r is frames[r][e]. The frames of one repetition sit
// back to back in one buffer per connection, so a session POST body is
// a plain sub-slice.
type frameSet struct {
	ticks     [][][]float64 // [rep][entity] payload
	frames    [][][]byte    // [rep][entity] encoded frame
	connBuf   [][][]byte    // [rep][conn] concatenated frames of the conn's entities
	connEnts  [][]int       // connection -> entities in send order
	frameSize int
}

// buildFrames cuts each entity's payloads from the base series at a
// seeded offset and encodes them.
func buildFrames(s shape, defs []streamDef, seed uint64) (*frameSet, error) {
	rng := dist.NewRand(seed)
	n := 1 << 20
	if s.frameTicks*s.reps*4 > n {
		n = s.frameTicks * s.reps * 4
	}
	base, err := baseSeries(n, rng)
	if err != nil {
		return nil, err
	}
	fs := &frameSet{
		ticks:    make([][][]float64, s.reps),
		frames:   make([][][]byte, s.reps),
		connBuf:  make([][][]byte, s.reps),
		connEnts: make([][]int, s.conns),
	}
	for e := range defs {
		c := e % s.conns
		fs.connEnts[c] = append(fs.connEnts[c], e)
	}
	offsets := make([]int, len(defs))
	for e := range offsets {
		offsets[e] = rng.IntN(n)
	}
	for r := 0; r < s.reps; r++ {
		fs.ticks[r] = make([][]float64, len(defs))
		fs.frames[r] = make([][]byte, len(defs))
		fs.connBuf[r] = make([][]byte, s.conns)
		for c, ents := range fs.connEnts {
			var buf []byte
			for _, e := range ents {
				t := make([]float64, s.frameTicks)
				for i := range t {
					t[i] = base[(offsets[e]+r*s.frameTicks+i)%n]
				}
				fs.ticks[r][e] = t
				start := len(buf)
				if buf, err = wire.AppendFrame(buf, defs[e].id, t); err != nil {
					return nil, err
				}
				fs.frameSize = len(buf) - start
			}
			fs.connBuf[r][c] = buf
			for i, e := range ents {
				fs.frames[r][e] = buf[i*fs.frameSize : (i+1)*fs.frameSize]
			}
		}
	}
	return fs, nil
}
