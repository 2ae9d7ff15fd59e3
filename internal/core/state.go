package core

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/stats"
)

// Kernel state tags: the first byte of every kernel blob names the
// technique that wrote it, so a blob applied to the wrong kernel type
// fails loudly instead of misparsing.
const (
	stateTagSystematic   = 0x01
	stateTagStratified   = 0x02
	stateTagSimpleRandom = 0x03
	stateTagBernoulli    = 0x04
	stateTagBSS          = 0x05
)

func appendBlob(dst, b []byte) []byte { return binenc.AppendBytes(dst, b) }

func appendAcc(dst []byte, a *stats.Accumulator) []byte {
	st := a.State()
	dst = binenc.AppendI64(dst, int64(st.N))
	dst = binenc.AppendF64(dst, st.Mean)
	dst = binenc.AppendF64(dst, st.M2)
	dst = binenc.AppendF64(dst, st.Sum)
	dst = binenc.AppendF64(dst, st.Min)
	dst = binenc.AppendF64(dst, st.Max)
	return dst
}

func readAcc(r *binenc.Reader) stats.AccumulatorState {
	return stats.AccumulatorState{
		N:    int(r.I64()),
		Mean: r.F64(),
		M2:   r.F64(),
		Sum:  r.F64(),
		Min:  r.F64(),
		Max:  r.F64(),
	}
}

func appendSample(dst []byte, s Sample) []byte {
	dst = binenc.AppendI64(dst, int64(s.Index))
	dst = binenc.AppendF64(dst, s.Value)
	dst = binenc.AppendBool(dst, s.Qualified)
	return dst
}

func readSample(r *binenc.Reader) Sample {
	return Sample{Index: int(r.I64()), Value: r.F64(), Qualified: r.Bool()}
}

// checkTag consumes and verifies the leading technique tag.
func checkTag(r *binenc.Reader, want uint8, name string) error {
	if got := r.U8(); r.Err() == nil && got != want {
		return fmt.Errorf("core: state blob tagged %#02x is not %s state (tag %#02x)", got, name, want)
	}
	return r.Err()
}

// mismatch flags a state blob whose embedded configuration differs from
// the kernel it is being applied to.
func mismatch(name, field string, blob, kernel any) error {
	return fmt.Errorf("core: %s state %s %v does not match kernel %s %v", name, field, blob, field, kernel)
}

// AppendState implements StreamSampler.
func (p *streamSystematic) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagSystematic)
	dst = binenc.AppendI64(dst, int64(p.interval))
	dst = binenc.AppendI64(dst, int64(p.next))
	dst = binenc.AppendI64(dst, int64(p.tick))
	return dst, nil
}

// RestoreState implements StreamSampler.
func (p *streamSystematic) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagSystematic, "systematic"); err != nil {
		return err
	}
	interval, next, tick := int(r.I64()), int(r.I64()), int(r.I64())
	if err := r.Err(); err != nil {
		return err
	}
	if interval != p.interval {
		return mismatch("systematic", "interval", interval, p.interval)
	}
	if tick < 0 || next < tick {
		return fmt.Errorf("core: systematic state next=%d tick=%d violates next >= tick >= 0", next, tick)
	}
	p.next, p.tick = next, tick
	return nil
}

// AppendState implements StreamSampler.
func (p *streamStratified) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagStratified)
	dst = binenc.AppendI64(dst, int64(p.interval))
	dst = binenc.AppendI64(dst, int64(p.tick))
	dst = binenc.AppendI64(dst, int64(p.pick))
	dst = appendSample(dst, p.pending)
	return p.rng.appendState(dst)
}

// RestoreState implements StreamSampler.
func (p *streamStratified) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagStratified, "stratified"); err != nil {
		return err
	}
	interval, tick, pick := int(r.I64()), int(r.I64()), int(r.I64())
	pending := readSample(r)
	rngState := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if interval != p.interval {
		return mismatch("stratified", "interval", interval, p.interval)
	}
	if tick < 0 || pick < 0 || pick >= interval {
		return fmt.Errorf("core: stratified state tick=%d pick=%d outside stratum of %d", tick, pick, interval)
	}
	if err := p.rng.restoreState(rngState); err != nil {
		return err
	}
	p.tick, p.pick, p.pending = tick, pick, pending
	return nil
}

// AppendState implements StreamSampler. Rate mode's candidate buffer
// is written in full — the regime's documented O(stream length) state —
// so a restored rate-mode kernel still owns every candidate tick.
func (p *streamSimpleRandom) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagSimpleRandom)
	dst = binenc.AppendI64(dst, int64(p.n))
	dst = binenc.AppendF64(dst, p.rate)
	dst = binenc.AppendI64(dst, int64(p.seen))
	dst = binenc.AppendU32(dst, uint32(len(p.res)))
	for _, s := range p.res {
		dst = appendSample(dst, s)
	}
	dst = binenc.AppendF64(dst, p.w)
	dst = binenc.AppendI64(dst, int64(p.skip))
	dst = binenc.AppendF64s(dst, p.buf)
	dst = binenc.AppendI64(dst, int64(p.base))
	return p.rng.appendState(dst)
}

// RestoreState implements StreamSampler.
func (p *streamSimpleRandom) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagSimpleRandom, "simple-random"); err != nil {
		return err
	}
	n, rate, seen := int(r.I64()), r.F64(), int(r.I64())
	nres := int(r.U32())
	if r.Err() == nil && r.Remaining() < 17*nres { // 17 bytes per encoded sample
		return fmt.Errorf("core: simple-random state declares %d reservoir entries beyond the blob", nres)
	}
	var res []Sample
	if nres > 0 {
		res = make([]Sample, nres)
		for i := range res {
			res[i] = readSample(r)
		}
	}
	w, skip := r.F64(), int(r.I64())
	buf := r.F64s()
	base := int(r.I64())
	rngState := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if n != p.n {
		return mismatch("simple-random", "n", n, p.n)
	}
	if rate != p.rate {
		return mismatch("simple-random", "rate", rate, p.rate)
	}
	if seen < 0 || skip < 0 || len(res) > n || (n > 0 && len(buf) > 0) {
		return fmt.Errorf("core: simple-random state inconsistent (seen=%d skip=%d reservoir=%d/%d buffered=%d)",
			seen, skip, len(res), n, len(buf))
	}
	if err := p.rng.restoreState(rngState); err != nil {
		return err
	}
	p.seen, p.res, p.w, p.skip, p.buf, p.base = seen, res, w, skip, buf, base
	return nil
}

// AppendState implements StreamSampler.
func (p *streamBernoulli) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagBernoulli)
	dst = binenc.AppendF64(dst, p.rate)
	dst = binenc.AppendI64(dst, int64(p.skip))
	return p.rng.appendState(dst)
}

// RestoreState implements StreamSampler. logq is a pure function of
// the rate, so only the skip counter and the RNG position travel.
func (p *streamBernoulli) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagBernoulli, "bernoulli"); err != nil {
		return err
	}
	rate, skip := r.F64(), int(r.I64())
	rngState := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if rate != p.rate {
		return mismatch("bernoulli", "rate", rate, p.rate)
	}
	if skip < 0 {
		return fmt.Errorf("core: bernoulli state skip %d must be >= 0", skip)
	}
	if err := p.rng.restoreState(rngState); err != nil {
		return err
	}
	p.skip = skip
	return nil
}

// AppendState implements StreamSampler. BSS draws no randomness; its
// state is the base-sample schedule, the adaptive-threshold accumulator
// and the extra-probe ticks still pending (those past the cursor).
func (s *StreamBSS) AppendState(dst []byte) ([]byte, error) {
	dst = binenc.AppendU8(dst, stateTagBSS)
	dst = binenc.AppendI64(dst, int64(s.cfg.Interval))
	dst = binenc.AppendI64(dst, int64(s.cfg.L))
	dst = binenc.AppendI64(dst, int64(s.tick))
	dst = binenc.AppendI64(dst, int64(s.nextBase))
	dst = appendAcc(dst, &s.running)
	dst = binenc.AppendI64(dst, int64(s.baseSeen))
	dst = binenc.AppendF64(dst, s.ath)
	dst = binenc.AppendBool(dst, s.armed)
	pending := s.extras[s.cur:]
	dst = binenc.AppendU32(dst, uint32(len(pending)))
	for _, t := range pending {
		dst = binenc.AppendI64(dst, int64(t))
	}
	return dst, nil
}

// RestoreState implements StreamSampler.
func (s *StreamBSS) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	if err := checkTag(r, stateTagBSS, "bss"); err != nil {
		return err
	}
	interval, l := int(r.I64()), int(r.I64())
	tick, nextBase := int(r.I64()), int(r.I64())
	accState := readAcc(r)
	baseSeen := int(r.I64())
	ath := r.F64()
	armed := r.Bool()
	nextras := int(r.U32())
	if r.Err() == nil && r.Remaining() < 8*nextras {
		return fmt.Errorf("core: bss state declares %d extra probes beyond the blob", nextras)
	}
	var extras []int
	if nextras > 0 {
		extras = make([]int, nextras)
		for i := range extras {
			extras[i] = int(r.I64())
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if interval != s.cfg.Interval {
		return mismatch("bss", "interval", interval, s.cfg.Interval)
	}
	if l != s.cfg.L {
		return mismatch("bss", "L", l, s.cfg.L)
	}
	if tick < 0 || baseSeen < 0 || accState.N < 0 {
		return fmt.Errorf("core: bss state counters negative (tick=%d baseSeen=%d accN=%d)", tick, baseSeen, accState.N)
	}
	if nextBase < tick {
		return fmt.Errorf("core: bss state nextBase=%d trails tick=%d", nextBase, tick)
	}
	for i, t := range extras {
		if t < tick || t >= nextBase || (i > 0 && t <= extras[i-1]) {
			return fmt.Errorf("core: bss state extra probes %v not ascending inside [%d, %d)", extras, tick, nextBase)
		}
	}
	s.tick, s.nextBase, s.baseSeen, s.ath, s.armed = tick, nextBase, baseSeen, ath, armed
	s.extras, s.cur = extras, 0
	s.running.SetState(accState)
	return nil
}

// Interface compliance checks.
var (
	_ StreamSampler = (*streamSystematic)(nil)
	_ StreamSampler = (*streamStratified)(nil)
	_ StreamSampler = (*streamSimpleRandom)(nil)
	_ StreamSampler = (*streamBernoulli)(nil)
	_ StreamSampler = (*StreamBSS)(nil)
)
