package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seed_stability.golden from the current output")

// seedStabilityTicks is the length of the trace the golden lines cover.
const seedStabilityTicks = 8192

var goldenPath = filepath.Join("testdata", "seed_stability.golden")

// seedStabilitySpecs pins one representative parameterization per
// technique. The trace length exercises several strata, reservoir
// replacements and Bernoulli skips, but keeps the golden file small.
var seedStabilitySpecs = []string{
	"systematic:interval=256,offset=3",
	"stratified:interval=256,seed=7",
	"simple:n=40,seed=7",
	"simple:rate=0.005,seed=7",
	"bernoulli:rate=0.005,seed=7",
	"bss:interval=256,L=4,eps=1.0",
	// The batch-kernel specs: every technique under the parameters the
	// batch shapes stress, including the interval-1 and rate-1 edges.
	"systematic:interval=37,offset=5",
	"systematic:interval=1",
	"stratified:interval=41,seed=11",
	"stratified:interval=1,seed=3",
	"simple:n=500,seed=12",
	"simple:rate=0.01,seed=13",
	"bernoulli:rate=0.02,seed=14",
	"bernoulli:rate=1,seed=2",
	// BSS variants: adaptive, static threshold, long warm-up, burst
	// chasing, interval 1 (no room for probes), colliding spread probes
	// and chase probes truncated at the interval end.
	"bss:interval=40,L=6,eps=1.0",
	"bss:interval=25,L=4,ath=5",
	"bss:interval=100,L=12,eps=1.3,pre=20",
	"bss:interval=50,L=5,eps=1.1,placement=chase",
	"bss:interval=1,L=4,eps=1.0",
	"bss:interval=100,L=4,eps=1.0",
	"bss:interval=3,L=5,ath=2",
	"bss:interval=30,offset=7,L=40,ath=2,placement=chase",
}

// TestSeedStability is the repo's cross-version determinism anchor:
// under a fixed seed, each technique's kept-index sequence is pinned to
// a committed golden file. The golden lines were generated by the
// retired per-tick form of each technique (one Offer call per tick),
// so they are also the reference TestBatchKernelMatchesOffer holds the
// skip kernels to under every batch shape. A diff here means a code
// change silently moved which ticks get sampled — if that is intended
// (a new kernel with a different draw order), regenerate with
//
//	go test ./internal/core -run TestSeedStability -update
//
// and call the change out in the commit message; if not, it is a
// regression. The first six lines were last regenerated when the skip
// kernels replaced the per-tick draws for simple random and Bernoulli
// sampling (their RNG spend changed; systematic, stratified and BSS
// kept their original sequences byte for byte).
func TestSeedStability(t *testing.T) {
	f := streamTestTrace(seedStabilityTicks)
	var buf bytes.Buffer
	for _, spec := range seedStabilitySpecs {
		eng, err := Lookup(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		samples, err := Collect(eng, f)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		fmt.Fprintf(&buf, "%s:", spec)
		for _, s := range samples {
			fmt.Fprintf(&buf, " %d", s.Index)
		}
		buf.WriteByte('\n')
	}

	path := goldenPath
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := range gotLines {
			if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Errorf("kept-index sequence drifted at line %d:\n got: %.120s\nwant: %.120s",
					i+1, gotLines[i], lineOrMissing(wantLines, i))
			}
		}
		t.Fatalf("seed stability broken: regenerate with -update ONLY if the draw-order change is intentional")
	}
}

// readGolden parses the golden file into each spec's kept indices.
func readGolden(t *testing.T) map[string][]int {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	out := make(map[string][]int)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		// Specs contain ':' too; the indices follow the last one.
		i := strings.LastIndex(line, ":")
		spec, rest := line[:i], line[i+1:]
		var idx []int
		for _, field := range strings.Fields(rest) {
			k, err := strconv.Atoi(field)
			if err != nil {
				t.Fatalf("golden line %q: %v", spec, err)
			}
			idx = append(idx, k)
		}
		out[spec] = idx
	}
	return out
}

func lineOrMissing(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return []byte("<missing>")
}
