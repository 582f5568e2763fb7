package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cmd/serve process on a loopback port.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	flags []string
	log   *os.File
}

// startDaemon launches cmd/serve with flags on a free loopback port and
// waits until /readyz answers 200.
func startDaemon(ctx context.Context, bin, logPath string, flags []string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping it, the kernel kills the
	// daemon instead of leaving it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, flags: args, log: logf}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("daemon on %s not ready: %v (log %s)", addr, err, logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 20 s), waits for it
// and returns its peak resident set in MiB.
func (d *daemon) stop() (float64, error) {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.cmd.Process.Kill()
	}
	timer := time.AfterFunc(20*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	timer.Stop()
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	// A drained daemon exits 3 (interrupted, drained cleanly).
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 3 {
		err = nil
	}
	return rss, err
}

// resetPeak clears the daemon's peak resident set (VmHWM; writing 5 to
// clear_refs resets only that), so peakMiB reports the peak since.
func (d *daemon) resetPeak() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// peakMiB is the daemon's peak resident set since the last resetPeak.
func (d *daemon) peakMiB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// selfPeakRSSMiB is this process's peak resident set.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// promSnapshot is a scrape of /metrics keyed by name plus canonical
// sorted labels, e.g. `x_sum{phase=decode,route=spmv}`.
type promSnapshot map[string]float64

func scrape(client *http.Client, base string) (promSnapshot, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	snap := promSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		snap[canonical(line[:sp])] = v
	}
	return snap, sc.Err()
}

// canonical sorts a sample's labels so lookups do not depend on the
// exposition order.
func canonical(series string) string {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return series
	}
	var labels []string
	for _, kv := range strings.Split(strings.TrimSuffix(series[i+1:], "}"), ",") {
		if eq := strings.IndexByte(kv, '='); eq > 0 {
			labels = append(labels, kv[:eq]+"="+strings.Trim(kv[eq+1:], `"`))
		}
	}
	sort.Strings(labels)
	return series[:i] + "{" + strings.Join(labels, ",") + "}"
}

// phaseMean is the mean of one request phase between two scrapes, in
// seconds, with the number of observations.
func phaseMean(before, after promSnapshot, route, phase string) (float64, float64) {
	key := "{phase=" + phase + ",route=" + route + "}"
	n := after["sparseorder_server_phase_seconds_count"+key] - before["sparseorder_server_phase_seconds_count"+key]
	s := after["sparseorder_server_phase_seconds_sum"+key] - before["sparseorder_server_phase_seconds_sum"+key]
	if n == 0 {
		return 0, 0
	}
	return s / n, n
}
