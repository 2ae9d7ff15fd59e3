package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/sampling"
	"repro/sampling/estimate"
)

// canon renders a daemon document (or the same document built
// in-process) with its wall-clock fields removed and its keys sorted,
// so two renderings of the same state compare equal byte for byte.
func canon(v any) ([]byte, error) {
	var raw []byte
	var err error
	if b, ok := v.([]byte); ok {
		raw = b
	} else if raw, err = json.Marshal(v); err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	return json.Marshal(stripClock(doc))
}

// stripClock drops "at" and "uptime_ns", which differ between any two
// processes (and between a snapshot and its restored twin) by design.
func stripClock(v any) any {
	switch t := v.(type) {
	case map[string]any:
		delete(t, "at")
		delete(t, "uptime_ns")
		for k, x := range t {
			t[k] = stripClock(x)
		}
	case []any:
		for i, x := range t {
			t[i] = stripClock(x)
		}
	}
	return v
}

// sampleJSON mirrors the daemon's wire form of a kept sample.
type sampleJSON struct {
	Index     int     `json:"index"`
	Value     float64 `json:"value"`
	Qualified bool    `json:"qualified,omitempty"`
}

func samplesJSON(s []sampling.Sample) []sampleJSON {
	out := make([]sampleJSON, len(s))
	for i, x := range s {
		out[i] = sampleJSON{Index: x.Index, Value: x.Value, Qualified: x.Qualified}
	}
	return out
}

// expected is the in-process reference for one checked entity: its
// snapshot after a cycle's ingest, and its DELETE reply after one more
// (continuation) frame.
type expected struct {
	pre, final []byte
}

// engineOpts maps a streamDef's estimator onto engine options.
func engineOpts(d streamDef) []sampling.Option {
	if d.estimator == "" {
		return nil
	}
	return []sampling.Option{sampling.WithEstimator(estimate.Method(d.estimator))}
}

func parseSpecs(specs []string) ([]sampling.Spec, error) {
	out := make([]sampling.Spec, len(specs))
	for i, s := range specs {
		sp, err := sampling.Parse(s)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// reference replays entity e's frames through a fresh sampling.Engine
// with the daemon's spec, seed and estimator.
func reference(s shape, d streamDef, fs *frameSet, e int) (expected, error) {
	spec, err := sampling.Parse(d.spec)
	if err != nil {
		return expected{}, err
	}
	eng, err := sampling.New(spec, engineOpts(d)...)
	if err != nil {
		return expected{}, err
	}
	var ex expected
	for r := 0; r < s.rounds; r++ {
		eng.OfferBatch(fs.ticks[r%s.reps][e])
	}
	if ex.pre, err = canon(eng.Snapshot()); err != nil {
		return expected{}, err
	}
	eng.OfferBatch(fs.ticks[s.rounds%s.reps][e])
	// A finalization error stays in the summary, as the daemon reports
	// it; the DELETE itself succeeds.
	tail, _ := eng.Finish()
	ex.final, err = canon(map[string]any{"summary": eng.Snapshot(), "tail": samplesJSON(tail)})
	return ex, err
}

// checkedSubset picks the seeded subset of streams whose output is
// compared against a reference.
func checkedSubset(s shape, rng *rand.Rand) []int {
	const streams = 64
	if s.entities <= streams {
		out := make([]int, s.entities)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := rng.Perm(s.entities)[:streams]
	sort.Ints(out)
	return out
}

// seenOf reads the "seen" counter of a canonical snapshot.
func seenOf(doc []byte) (int64, error) {
	var v struct {
		Seen int64 `json:"seen"`
	}
	if err := json.Unmarshal(doc, &v); err != nil {
		return 0, err
	}
	return v.Seen, nil
}

// mismatch is an output that disagrees with the reference.
func mismatch(format string, args ...any) error {
	return fmt.Errorf("check failed: "+format, args...)
}
