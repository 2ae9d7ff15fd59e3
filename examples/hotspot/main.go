// Hotspot detection: feed a synthesized OD-flow packet trace with an
// injected DoS-like burst, binned into 50 ms ticks, to a comparison
// group (systematic vs BSS) batch by batch, and show a threshold alarm
// spotting the burst from sampled data — the short-term monitoring use
// case the paper's introduction motivates. Between batches the group is
// snapshotted mid-stream: it is a live monitor, not a batch job.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/sampling"
)

// alarm raises a flag when the mean of the last window sampled ticks
// exceeds level. It samples systematically — every interval-th tick —
// so its cost stays bounded however fast the link runs.
type alarm struct {
	interval int
	level    float64
	window   []float64 // the last cap(window) sampled values, oldest first
	sampled  int       // ticks sampled so far
	fired    []int     // tick indices where the rolling mean exceeded level
}

func newAlarm(interval, window int, level float64) *alarm {
	return &alarm{interval: interval, level: level, window: make([]float64, 0, window)}
}

// offer feeds one batch of ticks whose first tick has index start.
func (a *alarm) offer(start int, ticks []float64) {
	first := (start + a.interval - 1) / a.interval * a.interval
	for idx := first; idx < start+len(ticks); idx += a.interval {
		if len(a.window) == cap(a.window) {
			copy(a.window, a.window[1:])
			a.window = a.window[:len(a.window)-1]
		}
		a.window = append(a.window, ticks[idx-start])
		a.sampled++
		if len(a.window) == cap(a.window) && stats.Mean(a.window) > a.level {
			a.fired = append(a.fired, idx)
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotspot: ")

	// Background traffic: 50 OD pairs for 120 seconds.
	// Constant per-burst rates keep the background tame so the alarm's
	// false-positive rate stays near zero for the demo.
	cfg := traffic.SynthConfig{
		Pairs: 50, Duration: 120, AlphaOn: 1.6,
		MeanOn: 0.5, MeanOff: 20, MeanRate: 2e5,
	}
	pkts, err := traffic.SynthesizeTrace(cfg, dist.NewRand(7))
	if err != nil {
		log.Fatal(err)
	}
	// Inject a hot spot: one pair floods for 5 seconds starting at t=60.
	for t := 60.0; t < 65; t += 0.0005 {
		pkts = append(pkts, traffic.Packet{
			Time: t, Src: 999, Dst: 1000,
			Size: 1500, // full-size flood packets
		})
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })

	const granularity = 0.05 // 50 ms bins
	f, err := traffic.BinBytes(pkts, granularity, cfg.Duration)
	if err != nil {
		log.Fatal(err)
	}
	baseline := stats.Mean(f)
	fmt.Printf("trace: %d packets, %d bins, mean rate %.3g bytes/s\n", len(pkts), len(f), baseline)

	// Two estimators side by side on the same ticks, and an alarm that
	// fires when a 5-sample rolling mean of every 4th bin exceeds 3x the
	// long-run mean.
	grp, err := sampling.NewGroup([]sampling.Spec{
		sampling.MustParse("systematic:interval=4"),
		sampling.MustParse("bss:interval=4,L=2,eps=2.5"),
	})
	if err != nil {
		log.Fatal(err)
	}
	al := newAlarm(4, 5, 3*baseline)

	// Live observation: one batch per 30 s of trace time, with a
	// snapshot after each. Snapshot never finalizes the group, so
	// watching changes nothing downstream.
	const batch = 600
	for start := 0; start < len(f); start += batch {
		ticks := f[start:min(start+batch, len(f))]
		grp.OfferBatch(ticks)
		al.offer(start, ticks)
		bss := grp.Snapshot().Members[1].Summary
		fmt.Printf("live: t~%4.0fs  bss kept %4d of %4d ticks, running mean %.3g\n",
			float64(bss.Seen)*granularity, bss.Kept, bss.Seen, bss.Mean)
	}

	cmp := grp.Snapshot()
	fmt.Printf("\n%-12s  %8s  %10s  %10s  %10s\n", "probe", "kept", "mean", "mean-bias", "qualified")
	fmt.Printf("%-12s  %8d  %10.3g  %10s  %10s\n", "input", cmp.Seen, cmp.Mean, "", "")
	for _, m := range cmp.Members {
		s := m.Summary
		fmt.Printf("%-12s  %8d  %10.3g  %+10.3f  %10d\n", s.Technique, s.Kept, s.Mean, m.Fidelity.MeanBias, s.Qualified)
	}
	fmt.Printf("%-12s  %8d\n", "alarm", al.sampled)

	if len(al.fired) == 0 {
		log.Fatal("the alarm missed the injected hot spot")
	}
	first := float64(al.fired[0]) * granularity
	last := float64(al.fired[len(al.fired)-1]) * granularity
	fmt.Printf("\nhot spot injected at t=60..65s; alarm fired %d times between t=%.1fs and t=%.1fs\n",
		len(al.fired), first, last)
}
