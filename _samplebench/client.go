package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/sampling/wire"
)

// newClient returns an HTTP client bound to a single keep-alive
// connection, so the benchmark's connection count is exactly its
// client count.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func closeIdle(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// do sends one request and returns the body of a 2xx reply; anything
// else is an error that names the status and the reply.
func do(c *http.Client, method, url, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// parallel runs fn over items 0..n-1, item i on client i mod len(cs),
// one goroutine per client, and returns the first error.
func parallel(cs []*http.Client, n int, fn func(c *http.Client, i int) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *http.Client) {
			defer wg.Done()
			for i := k; i < n; i += len(cs) {
				if err := fn(c, i); err != nil {
					errs[k] = err
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// offerReply is the body of a single-shot ingest (a continuation
// frame) and of a completed session.
type offerReply struct {
	Frames   int64  `json:"frames"`
	Accepted int64  `json:"accepted"`
	Error    string `json:"error"`
}

// post sends one body of binary frames and checks that the daemon
// accepted every tick (and, for a session, every frame) it carries.
func post(c *http.Client, url string, body []byte, frames, ticks int64, session bool) error {
	data, err := do(c, http.MethodPost, url, wire.ContentType, body)
	if err != nil {
		return err
	}
	var r offerReply
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("POST %s: reply: %w", url, err)
	}
	if r.Error != "" || r.Accepted != ticks || (session && r.Frames != frames) {
		return fmt.Errorf("POST %s: accepted %d ticks in %d frames, sent %d in %d (%s)",
			url, r.Accepted, r.Frames, ticks, frames, r.Error)
	}
	return nil
}

// readerStats is what one open-loop reader saw.
type readerStats struct {
	lat      []float64 // ms from scheduled send to reply; +Inf for a failed read
	attempts int64
	failed   int64
	lagMax   time.Duration // the reader's worst lateness in sending a read due on an idle connection
	late     int64         // reads the reader sent more than lateLimit after their due time on an idle connection
}

// lateLimit is how late the reader may send a read due on an idle
// connection before the read counts as late: the benchmark, not the
// daemon, delayed it.
const lateLimit = time.Millisecond

// readOpenLoop sends n GETs, for urls[i % len(urls)], at a fixed rate.
// Every read is timed from its scheduled send time, so a slow reply is
// also charged to the reads queued behind it. The reader sleeps until
// each due time with nanosleep(2), whose wake-ups are precise to tens
// of microseconds; the Go timer would wake it up to a millisecond late.
func readOpenLoop(c *http.Client, urls []string, rate float64, n int) readerStats {
	var st readerStats
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	var prevDone time.Time
	for k := 0; k < n; k++ {
		due := t0.Add(time.Duration(k) * interval)
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
		}
		// Lateness on a connection that was idle at the due time is the
		// reader's own.
		if prevDone.Before(due) {
			lag := time.Since(due)
			st.lagMax = max(st.lagMax, lag)
			if lag > lateLimit {
				st.late++
			}
		}
		st.attempts++
		_, err := do(c, http.MethodGet, urls[k%len(urls)], "", nil)
		prevDone = time.Now()
		if err != nil {
			st.failed++
			st.lat = append(st.lat, math.Inf(1))
			continue
		}
		st.lat = append(st.lat, float64(prevDone.Sub(due))/1e6)
	}
	return st
}

// add pools another reader's stats into st.
func (st *readerStats) add(o readerStats) {
	st.lat = append(st.lat, o.lat...)
	st.attempts += o.attempts
	st.failed += o.failed
	st.lagMax = max(st.lagMax, o.lagMax)
	st.late += o.late
}
