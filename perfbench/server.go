package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned `topoinv serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startServer spawns the server on a free loopback port over storeDir and
// returns once it answers HTTP. The server dies with the harness
// (Pdeathsig), so an interrupted run leaves no process behind.
func startServer(bin, storeDir, logPath string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "serve", "-addr", addr, "-store", storeDir, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(20 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitReady polls the listener every millisecond until /v1/stats answers.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before it was ready: %w", s.err)
		default:
		}
		resp, err := http.Get(s.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v", timeout)
}

// stop sends SIGTERM (the server then drains and writes its store manifest
// and SIMINDEX.bin) and waits for the exit; a server still running after
// 20s is killed.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return s.err
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server ignored SIGTERM for 20s and was killed")
	}
}

// scrape reads the server's Prometheus exposition into a series → value
// map (series = name plus its label set, as printed).
func (s *server) scrape() (metrics, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

// metrics holds one exposition: series → value.
type metrics map[string]float64

func parseMetrics(text []byte) metrics {
	m := metrics{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// sum adds every series of the named metric, whatever its labels.
func (m metrics) sum(name string) float64 {
	var t float64
	for series, v := range m {
		if series == name || strings.HasPrefix(series, name+"{") {
			t += v
		}
	}
	return t
}

// delta returns after − before for the named metric summed over labels.
func delta(before, after metrics, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procPeakRSS returns a process's VmHWM in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTimes is the aggregate line of /proc/stat: steal and total jiffies.
type cpuTimes struct{ steal, total uint64 }

func hostCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the steal share of all CPU time between two samples.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
