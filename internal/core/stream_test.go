package core

import (
	"testing"

	"repro/internal/dist"
)

// streamTestTrace is a deterministic heavy-tailed trace shared by the
// seed-stability and batch-kernel tests.
func streamTestTrace(n int) []float64 {
	rng := dist.NewRand(20050608)
	p := dist.Pareto{Alpha: 1.4, Xm: 1}
	f := make([]float64, n)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	return f
}

// config is a technique configuration: each builds a fresh kernel.
type config interface {
	Stream() (StreamSampler, error)
}

// mustStream builds a fresh kernel from c.
func mustStream(t *testing.T, c config) StreamSampler {
	t.Helper()
	s, err := c.Stream()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sampleOf runs a fresh kernel built from c over the whole of f.
func sampleOf(c config, f []float64) ([]Sample, error) {
	s, err := c.Stream()
	if err != nil {
		return nil, err
	}
	return Collect(s, f)
}

// TestStreamStratifiedDropsPartialStratum pins the batch rule in the
// streaming engine: a trailing incomplete stratum contributes no sample.
func TestStreamStratifiedDropsPartialStratum(t *testing.T) {
	s, err := NewStratified(10, newRand(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sampleOf(s, seq(25)) // strata [0,10) [10,20); [20,25) incomplete
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("kept %d samples, want 2", len(got))
	}
	for i, smp := range got {
		if smp.Index < i*10 || smp.Index >= (i+1)*10 {
			t.Errorf("sample %d at index %d outside its stratum", i, smp.Index)
		}
	}
}

// TestStreamSimpleRandomErrors exercises the deferred error path: the
// population check can only happen at Finish.
func TestStreamSimpleRandomErrors(t *testing.T) {
	eng, err := SimpleRandom{N: 10, Rng: newRand(1)}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(); err == nil {
		t.Error("expected empty-stream error")
	}
	eng2, err := SimpleRandom{N: 10, Rng: newRand(1)}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	eng2.OfferBatch(0, seq(5), nil)
	if _, err := eng2.Finish(); err == nil {
		t.Error("expected n > population error")
	}
}

// TestSimpleRandomRate checks the population-relative size rule
// n = max(1, len(f)/round(1/rate)).
func TestSimpleRandomRate(t *testing.T) {
	s, err := NewSimpleRandomRate(0.01, newRand(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sampleOf(s, seq(5000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("kept %d samples, want 50", len(got))
	}
	if _, err := NewSimpleRandomRate(0, newRand(9)); err == nil {
		t.Error("expected error for rate 0")
	}
	if _, err := NewSimpleRandomRate(1.5, newRand(9)); err == nil {
		t.Error("expected error for rate > 1")
	}
}

// TestCollectEmptySeries pins Collect's empty-series error.
func TestCollectEmptySeries(t *testing.T) {
	eng, err := Systematic{Interval: 3}.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(eng, nil); err == nil {
		t.Error("expected error for empty series")
	}
}
