package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live holds every started leader until it is stopped, so a signal to
// the benchmark can stop them all.
var live struct {
	mu      sync.Mutex
	leaders map[*leader]bool
}

func stopAllLeaders() {
	live.mu.Lock()
	ls := make([]*leader, 0, len(live.leaders))
	for l := range live.leaders {
		ls = append(ls, l)
	}
	live.mu.Unlock()
	for _, l := range ls {
		l.stop()
	}
}

// leader is a dyntcd child process: default flags plus -addr and a
// -wal-dir inside the run's own directory.
type leader struct {
	cmd    *exec.Cmd
	base   string
	walDir string
	log    *os.File
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startLeader starts dyntcd and waits until GET /healthz answers.
func startLeader(bin, dir string) (*leader, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "dyntcd.log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-wal-dir", walDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the leader if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start dyntcd: %w", err)
	}
	l := &leader{cmd: cmd, base: "http://" + addr, walDir: walDir, log: logf, exited: make(chan struct{})}
	live.mu.Lock()
	if live.leaders == nil {
		live.leaders = map[*leader]bool{}
	}
	live.leaders[l] = true
	live.mu.Unlock()
	go func() {
		l.err = cmd.Wait()
		close(l.exited)
	}()
	hc := &http.Client{Transport: &http.Transport{}, Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-l.exited:
			l.stop()
			return nil, fmt.Errorf("dyntcd exited during start-up: %v (see %s)", l.err, logf.Name())
		default:
		}
		if resp, err := hc.Get(l.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		if time.Now().After(deadline) {
			l.stop()
			return nil, errors.New("dyntcd did not answer /healthz within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the leader gracefully (SIGTERM), killing it after 15s, and
// waits until the process has exited. Safe to call more than once.
func (l *leader) stop() {
	select {
	case <-l.exited:
	default:
		_ = l.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-l.exited:
		case <-time.After(15 * time.Second):
			_ = l.cmd.Process.Kill()
			<-l.exited
		}
	}
	l.log.Close()
	live.mu.Lock()
	delete(live.leaders, l)
	live.mu.Unlock()
}

// cpuSeconds returns the leader's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 1/100 s).
func (l *leader) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", l.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / 100, nil
}

// statusKB reads one kB field (VmRSS, VmHWM) of /proc/<pid>/status.
func (l *leader) statusKB(field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", l.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// walBytes sums the sizes of the leader's WAL files.
func (l *leader) walBytes() (int64, error) {
	paths, err := filepath.Glob(filepath.Join(l.walDir, "tree-*.wal"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

func (l *leader) walPath(i int) string {
	return filepath.Join(l.walDir, fmt.Sprintf("tree-%d.wal", treeID(i)))
}
