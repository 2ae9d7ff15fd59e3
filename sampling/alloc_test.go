package sampling

import "testing"

// TestOfferBatchZeroAlloc pins every technique kernel to zero
// allocations once warm: a 512-tick batch of heavy-tailed traffic
// through Engine.OfferBatch, or one tick through Offer, must not touch
// the heap. Warm-up grows the engine's scratch buffer, fills the
// reservoir and lets BSS lay out its first extra probes; from then on
// every buffer is reused.
//
// Rate-mode simple random sampling ("simple:rate=...") is left out on
// purpose: it buffers every tick until Finish, so its candidate buffer
// is documented O(stream length) state that must grow.
func TestOfferBatchZeroAlloc(t *testing.T) {
	const batch = 512
	f := heavyTrace(1 << 16)
	for _, spec := range []string{
		"systematic:interval=100",
		"systematic:interval=1",
		"stratified:interval=100,seed=1",
		"simple:n=1000,seed=1",
		"bernoulli:rate=0.01,seed=1",
		"bss:interval=100,L=4,eps=1.0",
		"bss:interval=25,L=4,ath=5",
		"bss:interval=50,L=5,eps=1.1,placement=chase",
	} {
		eng, err := New(MustParse(spec))
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		next := func() {
			eng.OfferBatch(f[off : off+batch])
			off = (off + batch) % len(f)
		}
		for i := 0; i < 64; i++ {
			next()
		}
		if allocs := testing.AllocsPerRun(200, next); allocs != 0 {
			t.Errorf("%s: %v allocs per warm %d-tick OfferBatch, want 0", spec, allocs, batch)
		}
		// Offer is a one-tick batch through the same path.
		tick := func() {
			eng.Offer(f[off])
			off = (off + 1) % len(f)
		}
		if allocs := testing.AllocsPerRun(2000, tick); allocs != 0 {
			t.Errorf("%s: %v allocs per Offer, want 0", spec, allocs)
		}
	}
}
