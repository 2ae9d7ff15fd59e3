package persist_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/sampling"
	"repro/sampling/hub"
	"repro/sampling/persist"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/checkpoint_v1.golden from the current output")

// fixedClock pins every timestamp a checkpoint can absorb, so the
// container bytes are a pure function of the offered ticks.
func fixedClock() time.Time { return time.Unix(1700000000, 0).UTC() }

// persistTrace is a deterministic mildly bursty series (no RNG, so the
// test is self-seeding).
func persistTrace(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 1 + math.Sin(float64(i)/7)*math.Cos(float64(i)/101) + float64(i%13)/13
	}
	return f
}

// persistSpecs covers all five techniques plus a budgeted engine.
var persistSpecs = []string{
	"systematic:interval=16,offset=3",
	"stratified:interval=16,seed=11",
	"simple:n=32,seed=11",
	"simple:rate=0.01,seed=11",
	"bernoulli:rate=0.05,seed=11",
	"bss:interval=32,L=3,eps=0.8",
}

// buildHub assembles a deterministic hub: one stream per spec (the
// first carrying an estimator), plus one comparison group, all fed the
// same trace.
func buildHub(t testing.TB, ticks int) *hub.Hub {
	t.Helper()
	h := hub.New(hub.WithClock(fixedClock))
	f := persistTrace(ticks)
	for i, spec := range persistSpecs {
		id := fmt.Sprintf("s%02d", i)
		var opts []sampling.Option
		if i == 0 {
			opts = append(opts, sampling.WithEstimator("aggvar"))
		}
		if err := h.Create(id, sampling.MustParse(spec), opts...); err != nil {
			t.Fatalf("create %s: %v", spec, err)
		}
		if _, err := h.OfferBatch(id, f); err != nil {
			t.Fatalf("offer %s: %v", spec, err)
		}
	}
	specs := []sampling.Spec{
		sampling.MustParse("systematic:interval=16"),
		sampling.MustParse("bernoulli:rate=0.05,seed=3"),
	}
	if err := h.CreateGroup("g00", specs, sampling.WithEstimator("wavelet")); err != nil {
		t.Fatalf("create group: %v", err)
	}
	if _, err := h.OfferBatch("g00", f); err != nil {
		t.Fatalf("offer group: %v", err)
	}
	return h
}

// TestCheckpointFileRoundTrip drives the full durability path:
// checkpoint a live hub, write the container atomically, read it back,
// restore into a fresh hub, and require that the restored hub carries
// the same streams, counters and — after feeding both hubs the same
// suffix — the same kept counts and summaries.
func TestCheckpointFileRoundTrip(t *testing.T) {
	const cut, total = 4096, 8192
	live := buildHub(t, cut)
	ck, err := live.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hub.ckpt")
	if err := persist.WriteFile(path, ck); err != nil {
		t.Fatal(err)
	}
	read, err := persist.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if read.TakenAtUnixNano != fixedClock().UnixNano() {
		t.Fatalf("TakenAt = %d, want the hub clock's instant", read.TakenAtUnixNano)
	}

	restored := hub.New(hub.WithClock(fixedClock))
	if err := restored.Restore(read); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.List(), live.List(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("restored streams %v, want %v", got, want)
	}
	if got, want := restored.ListGroups(), live.ListGroups(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("restored groups %v, want %v", got, want)
	}
	ls, rs := live.Stats(), restored.Stats()
	if ls.Ticks != rs.Ticks || ls.Kept != rs.Kept || ls.Created != rs.Created ||
		ls.GroupTicks != rs.GroupTicks || ls.GroupKept != rs.GroupKept || ls.GroupsCreated != rs.GroupsCreated {
		t.Fatalf("restored stats %+v diverge from live %+v", rs, ls)
	}

	suffix := persistTrace(total)[cut:]
	for _, id := range live.List() {
		ka, err := live.OfferBatch(id, suffix)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := restored.OfferBatch(id, suffix)
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb {
			t.Fatalf("stream %s: live kept %d after restart, restored kept %d", id, ka, kb)
		}
		sa, _ := live.Snapshot(id)
		sb, _ := restored.Snapshot(id)
		if sa.Seen != sb.Seen || sa.Kept != sb.Kept || sa.Qualified != sb.Qualified {
			t.Fatalf("stream %s: summaries diverge: %+v vs %+v", id, sa, sb)
		}
	}
	ga, err := live.OfferBatch("g00", suffix)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := restored.OfferBatch("g00", suffix)
	if err != nil {
		t.Fatal(err)
	}
	if ga != gb {
		t.Fatalf("group kept %d vs %d after restore", ga, gb)
	}
}

// TestCheckpointGolden pins the v1 container byte layout to a
// committed golden file: a fixed hub must checkpoint to the identical
// bytes, build after build. A diff means the state codec changed — if
// intended, bump the version story, regenerate with
//
//	go test ./sampling/persist -run TestCheckpointGolden -update
//
// and call the layout change out in the commit message; if not, it is
// a wire regression that would strand existing checkpoint files.
func TestCheckpointGolden(t *testing.T) {
	h := buildHub(t, 2048)
	ck, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data := ck.Encode()
	path := filepath.Join("testdata", "checkpoint_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(data))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(data, want) {
		i := 0
		for i < len(data) && i < len(want) && data[i] == want[i] {
			i++
		}
		t.Fatalf("checkpoint bytes drifted from the committed v1 layout at offset %d (got %d bytes, want %d): regenerate with -update ONLY if the layout change is intentional", i, len(data), len(want))
	}
	// The golden file must still restore — layout stability is only
	// useful if old files stay loadable.
	ck2, err := persist.Decode(want)
	if err != nil {
		t.Fatalf("golden no longer decodes: %v", err)
	}
	fresh := hub.New(hub.WithClock(fixedClock))
	if err := fresh.Restore(ck2); err != nil {
		t.Fatalf("golden no longer restores: %v", err)
	}
}

// TestDecodeRejectsCorruption holds Decode's typed errors against the
// classic failure modes: truncation, foreign bytes, version skew, bit
// rot, and a hostile record count.
func TestDecodeRejectsCorruption(t *testing.T) {
	h := buildHub(t, 512)
	ck, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	valid := ck.Encode()

	if _, err := persist.Decode(valid[:5]); !errors.Is(err, persist.ErrBadCheckpoint) {
		t.Fatalf("truncated: %v, want ErrBadCheckpoint", err)
	}
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	if _, err := persist.Decode(bad); !errors.Is(err, persist.ErrBadCheckpoint) {
		t.Fatalf("bad magic: %v, want ErrBadCheckpoint", err)
	}
	bad = append([]byte(nil), valid...)
	bad[4] = 99
	if _, err := persist.Decode(bad); !errors.Is(err, persist.ErrCheckpointVersion) {
		t.Fatalf("version 99: %v, want ErrCheckpointVersion", err)
	}
	bad = append([]byte(nil), valid...)
	bad[len(bad)/2] ^= 0x10
	if _, err := persist.Decode(bad); !errors.Is(err, persist.ErrCheckpointChecksum) {
		t.Fatalf("flipped bit: %v, want ErrCheckpointChecksum", err)
	}
	if _, err := persist.Decode(hostileCount()); !errors.Is(err, persist.ErrBadCheckpoint) {
		t.Fatalf("hostile count: %v, want ErrBadCheckpoint", err)
	}
	// Trailing garbage after the last record, CRC recomputed so only
	// the length check can catch it.
	empty := (&persist.Checkpoint{}).Encode()
	junk := append(empty[:len(empty)-4], 1, 2, 3)
	junk = binenc.AppendU32(junk, crc32.ChecksumIEEE(junk))
	if _, err := persist.Decode(junk); !errors.Is(err, persist.ErrBadCheckpoint) {
		t.Fatalf("trailing bytes: %v, want ErrBadCheckpoint", err)
	}
}

// hostileCount hand-assembles a correctly framed container whose
// stream count demands far more records than the bytes that follow —
// the allocation-bomb shape Decode must reject before reserving
// memory.
func hostileCount() []byte {
	b := (&persist.Checkpoint{}).Encode()
	b = b[:len(b)-4-8] // drop both zero counts and the CRC
	b = binenc.AppendU32(b, 1<<30)
	b = binenc.AppendU32(b, 0)
	return binenc.AppendU32(b, crc32.ChecksumIEEE(b))
}

// TestWriteFileAtomic: the published file always decodes, and the
// temp file never outlives a successful write.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hub.ckpt")
	for i := 0; i < 3; i++ {
		ck := &persist.Checkpoint{TakenAtUnixNano: int64(i)}
		if err := persist.WriteFile(path, ck); err != nil {
			t.Fatal(err)
		}
		got, err := persist.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.TakenAtUnixNano != int64(i) {
			t.Fatalf("read TakenAt %d after write %d — stale file survived the rename", got.TakenAtUnixNano, i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after writes, want only the checkpoint (temp files leaked)", len(entries))
	}
}

// FuzzRestoreState throws mutated containers at the full restore path:
// Decode, then every embedded engine/group blob through the sampling
// codec. Nothing may panic and nothing may over-allocate; errors are
// the expected outcome for mutated bytes.
func FuzzRestoreState(f *testing.F) {
	h := buildHub(f, 256)
	ck, err := h.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	valid := ck.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add((&persist.Checkpoint{}).Encode())
	if len(ck.Streams) > 0 {
		f.Add(ck.Streams[0].State) // an engine blob where a container belongs
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := persist.Decode(data)
		if err != nil {
			return
		}
		for _, rec := range ck.Streams {
			if _, err := sampling.RestoreEngine(rec.State); err != nil {
				continue
			}
		}
		for _, rec := range ck.Groups {
			if _, err := sampling.RestoreGroup(rec.State); err != nil {
				continue
			}
		}
	})
}

// BenchmarkCheckpoint measures cutting and encoding a whole-hub
// snapshot — the work the -checkpoint-interval timer pays while
// ingest keeps running.
func BenchmarkCheckpoint(b *testing.B) {
	h := benchHub(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := h.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if len(ck.Encode()) == 0 {
			b.Fatal("empty checkpoint")
		}
	}
}

// BenchmarkRestoreState measures the boot path: decode a container
// and rebuild every engine in a fresh hub.
func BenchmarkRestoreState(b *testing.B) {
	h := benchHub(b)
	ck, err := h.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	data := ck.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := persist.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		fresh := hub.New(hub.WithClock(fixedClock))
		if err := fresh.Restore(ck); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHub is the benchmark corpus: 64 streams rotating over the five
// techniques, 2048 ticks each.
func benchHub(b *testing.B) *hub.Hub {
	b.Helper()
	h := hub.New(hub.WithClock(fixedClock))
	f := persistTrace(2048)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("bench-%03d", i)
		spec := sampling.MustParse(persistSpecs[i%len(persistSpecs)])
		if err := h.Create(id, spec); err != nil {
			b.Fatal(err)
		}
		if _, err := h.OfferBatch(id, f); err != nil {
			b.Fatal(err)
		}
	}
	return h
}
