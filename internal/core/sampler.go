// Package core implements the paper's contribution: the three classic
// traffic-sampling techniques (static systematic, stratified random,
// simple random), the proposed Biased Systematic Sampling (BSS) with
// static, unbiased, biased and online-adaptive parameterizations, the
// renewal-process machinery behind the Sufficient-and-Necessary Condition
// (Theorem 1) for Hurst-parameter preservation, the average-variance
// evaluation of Theorem 2, and the full BSS parameter theory (bias ratio
// xi, extra-sample count L, threshold ratio epsilon, overhead, and the
// eta(r) convergence law).
//
// Every technique is implemented once, as a StreamSampler state
// machine that consumes the traffic process f(t) in batches and jumps
// straight to the ticks it keeps; Collect runs one over a whole series.
// A spec-string registry (Lookup/Build/Names) builds them from
// descriptions like "bss:rate=1e-3,L=10,eps=1.0".
package core

import (
	"fmt"
)

// Sample is one selected observation of the parent process.
type Sample struct {
	Index     int     // position in the parent series
	Value     float64 // f(Index)
	Qualified bool    // true when taken as a BSS extra ("qualified") sample
}

// Systematic is static systematic sampling: every Interval-th element is
// selected deterministically, starting at Offset. Different Offsets give
// the different "instances" whose spread Theorem 2 bounds.
type Systematic struct {
	Interval int // C >= 1
	Offset   int // in [0, Interval)
}

// NewSystematic validates the parameters.
func NewSystematic(interval, offset int) (Systematic, error) {
	s := Systematic{Interval: interval, Offset: offset}
	if err := s.validate(); err != nil {
		return Systematic{}, err
	}
	return s, nil
}

// Stream validates the configuration and returns a fresh kernel.
func (s Systematic) Stream() (StreamSampler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &streamSystematic{interval: s.Interval, next: s.Offset}, nil
}

func (s Systematic) validate() error {
	if s.Interval < 1 {
		return fmt.Errorf("core: systematic interval %d must be >= 1", s.Interval)
	}
	if s.Offset < 0 || s.Offset >= s.Interval {
		return fmt.Errorf("core: systematic offset %d outside [0, %d)", s.Offset, s.Interval)
	}
	return nil
}

// Stratified is stratified random sampling: the time axis is divided into
// strata of length Interval and one position is drawn uniformly inside
// each stratum.
type Stratified struct {
	Interval int
	Rng      *Rand
}

// NewStratified validates the parameters.
func NewStratified(interval int, rng *Rand) (Stratified, error) {
	s := Stratified{Interval: interval, Rng: rng}
	if err := s.validate(); err != nil {
		return Stratified{}, err
	}
	return s, nil
}

// Stream validates the configuration and returns a fresh kernel.
func (s Stratified) Stream() (StreamSampler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &streamStratified{interval: s.Interval, rng: s.Rng}, nil
}

func (s Stratified) validate() error {
	if s.Interval < 1 {
		return fmt.Errorf("core: stratified interval %d must be >= 1", s.Interval)
	}
	if s.Rng == nil {
		return fmt.Errorf("core: stratified sampling needs a random source")
	}
	return nil
}

// SimpleRandom is simple random sampling: positions drawn uniformly
// without replacement from the whole series. The size is either fixed (N)
// or population-relative (Rate, used when N == 0): with Rate r the draw
// keeps max(1, len(f)/round(1/r)) positions.
type SimpleRandom struct {
	N    int
	Rate float64
	Rng  *Rand
}

// NewSimpleRandom validates a fixed-size configuration.
func NewSimpleRandom(n int, rng *Rand) (SimpleRandom, error) {
	s := SimpleRandom{N: n, Rng: rng}
	if err := s.validate(); err != nil {
		return SimpleRandom{}, err
	}
	return s, nil
}

// NewSimpleRandomRate validates a population-relative configuration.
func NewSimpleRandomRate(rate float64, rng *Rand) (SimpleRandom, error) {
	s := SimpleRandom{Rate: rate, Rng: rng}
	if err := s.validate(); err != nil {
		return SimpleRandom{}, err
	}
	return s, nil
}

// Stream validates the configuration and returns a fresh kernel. The
// fixed-size form (N > 0) runs a skip-based reservoir in O(N) memory;
// the population-relative form buffers the raw values and draws at
// Finish — a rate-sized draw without replacement needs the whole
// population.
func (s SimpleRandom) Stream() (StreamSampler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &streamSimpleRandom{n: s.N, rate: s.Rate, rng: s.Rng}, nil
}

func (s SimpleRandom) validate() error {
	if s.N < 1 && s.Rate == 0 {
		return fmt.Errorf("core: simple random sample size %d must be >= 1", s.N)
	}
	if s.N < 0 {
		return fmt.Errorf("core: simple random sample size %d must be >= 0", s.N)
	}
	if s.N == 0 && (!(s.Rate > 0) || s.Rate > 1) {
		return fmt.Errorf("core: simple random rate %g outside (0,1]", s.Rate)
	}
	if s.Rng == nil {
		return fmt.Errorf("core: simple random sampling needs a random source")
	}
	return nil
}

// Bernoulli is probabilistic 1-in-1/Rate sampling: each element is selected
// independently with probability Rate. Its inter-sample gaps follow the
// geometric law of the paper's Eq. (13), making it the event-driven
// counterpart of SimpleRandom.
type Bernoulli struct {
	Rate float64
	Rng  *Rand
}

// NewBernoulli validates the parameters.
func NewBernoulli(rate float64, rng *Rand) (Bernoulli, error) {
	b := Bernoulli{Rate: rate, Rng: rng}
	if err := b.validate(); err != nil {
		return Bernoulli{}, err
	}
	return b, nil
}

// Stream validates the configuration and returns a fresh kernel.
func (s Bernoulli) Stream() (StreamSampler, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return newStreamBernoulli(s.Rate, s.Rng), nil
}

func (s Bernoulli) validate() error {
	if !(s.Rate > 0) || s.Rate > 1 {
		return fmt.Errorf("core: Bernoulli rate %g outside (0,1]", s.Rate)
	}
	if s.Rng == nil {
		return fmt.Errorf("core: Bernoulli sampling needs a random source")
	}
	return nil
}
