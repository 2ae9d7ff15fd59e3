package main

import "testing"

func TestThresholdAlarmFires(t *testing.T) {
	al := newAlarm(1, 3, 10)
	// Quiet, then a sustained burst, fed in two batches split mid-burst.
	vals := []float64{1, 1, 1, 1, 50, 60, 70, 80, 1, 1}
	al.offer(0, vals[:6])
	al.offer(6, vals[6:])
	if len(al.fired) == 0 {
		t.Fatal("alarm never fired during the burst")
	}
	for _, idx := range al.fired {
		if idx < 4 {
			t.Errorf("alarm fired at %d, before the burst", idx)
		}
	}
	if al.sampled != len(vals) {
		t.Errorf("sampled %d, want %d", al.sampled, len(vals))
	}
}

// TestAlarmSamplesSystematically: with interval 4 the alarm sees ticks
// 0, 4, 8, ... whatever the batch boundaries.
func TestAlarmSamplesSystematically(t *testing.T) {
	al := newAlarm(4, 1, 0.5)
	ticks := make([]float64, 20)
	for i := range ticks {
		ticks[i] = 1
	}
	for _, cut := range [][2]int{{0, 3}, {3, 9}, {9, 13}, {13, 20}} {
		al.offer(cut[0], ticks[cut[0]:cut[1]])
	}
	want := []int{0, 4, 8, 12, 16}
	if len(al.fired) != len(want) {
		t.Fatalf("fired at %v, want %v", al.fired, want)
	}
	for i := range want {
		if al.fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", al.fired, want)
		}
	}
}
