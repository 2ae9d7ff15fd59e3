package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/sampled from the checkout into the build
// directory and returns the binary's path.
func buildDaemon(ctx context.Context, root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "sampled")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/sampled")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/sampled: %w", err)
	}
	return bin, nil
}

// daemon is one running sampled process on a loopback port.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	done  chan struct{} // closed once the process has been waited for
	err   error         // Wait's result, valid after done
	start time.Time     // exec time
}

// startDaemon execs sampled on an ephemeral loopback port with the
// given checkpoint directory and learns the bound address from its
// "listening" log line. It does not wait for readiness. The daemon
// takes no periodic checkpoints, only the final one at shutdown.
func startDaemon(bin, ckptDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-log-level", "info",
		"-checkpoint-dir", ckptDir, "-checkpoint-interval", "0")
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sampled: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		// Drain stderr for the process's whole life so it never blocks
		// on a full pipe; the first listening line carries the address.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.Contains(line, "msg=listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addrc <- a
						sent = true
					}
				}
			}
			if strings.Contains(line, "level=ERROR") && !strings.Contains(line, "/readyz") {
				fmt.Fprintln(os.Stderr, "sampled:", line)
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("sampled exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("sampled did not report its address within 30s")
	}
}

// waitReady polls /readyz until it answers 200 and returns the time
// since exec.
func (d *daemon) waitReady() (time.Duration, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.start), nil
			}
		}
		select {
		case <-d.done:
			return 0, fmt.Errorf("sampled exited before ready: %v", d.err)
		case <-time.After(200 * time.Microsecond):
		}
	}
	return 0, errors.New("sampled not ready within 60s")
}

// stop sends SIGTERM and waits for the exit, returning the time from
// signal to exit (the drain plus the final checkpoint).
func (d *daemon) stop() (time.Duration, error) {
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, errors.New("sampled did not exit within 60s of SIGTERM")
	}
	took := time.Since(t0)
	if d.err != nil {
		return 0, fmt.Errorf("sampled exited uncleanly: %v", d.err)
	}
	return took, nil
}

// kill ends the process without a drain and waits for it; safe to
// call on a process that has already exited.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // the wait below reports the outcome
	<-d.done
}

// cpuTime is the process's user+system CPU so far, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks).
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields start after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSS is the process's VmHWM in bytes.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
