package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/dlacep-serve from the checkout at root into dir
// and returns the binary's path.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "dlacep-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dlacep-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dlacep-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running dlacep-serve process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

// addrWatcher is the child's stdout: it picks the listen address out of the
// "serving on ADDR" line and discards everything else.
type addrWatcher struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string // receives the address once
	sent bool
}

const servingPrefix = "serving on "

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		nl := bytes.IndexByte(w.buf, '\n')
		if nl < 0 {
			return len(p), nil
		}
		line := string(w.buf[:nl])
		w.buf = w.buf[nl+1:]
		if strings.HasPrefix(line, servingPrefix) {
			w.sent = true
			w.addr <- strings.TrimSpace(line[len(servingPrefix):])
			return len(p), nil
		}
	}
}

// startServer launches the built server on an ephemeral loopback port and
// waits for it to announce its address.
func startServer(bin, modelPath string, extra []string) (*child, error) {
	args := append([]string{"-listen", "127.0.0.1:0", "-model", modelPath}, extra...)
	c := &child{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	watch := &addrWatcher{addr: make(chan string, 1)}
	c.cmd.Stdout = watch
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = c.cmd.Wait() // the exit state is read from ProcessState in stop
		close(c.exited)
	}()
	select {
	case c.addr = <-watch.addr:
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("dlacep-serve exited before listening: %v\n%s", c.cmd.ProcessState, c.stderr.String())
	case <-time.After(20 * time.Second):
		_, _ = c.stop()
		return nil, fmt.Errorf("dlacep-serve did not announce its address within 20s")
	}
}

// usage is what the operating system recorded for a finished child.
type usage struct {
	cpu      time.Duration // user + system
	maxRSSKB int64
	// clean is true when the server ran until this benchmark interrupted it
	// and wrote nothing to standard error (it logs connection failures and
	// panics there).
	clean bool
}

// peakRSSKB reads the process's resident-set high-water mark from /proc.
// Rusage's Maxrss cannot be used: exec folds the forking process's own peak
// into the child's, so it reports the benchmark's memory, not the server's.
func peakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", pid)
}

// stop interrupts the server (it serves until killed), waits for it to end
// and returns its resource usage.
func (c *child) stop() (usage, error) {
	running := true
	select {
	case <-c.exited:
		running = false
	default:
	}
	peak, perr := peakRSSKB(c.cmd.Process.Pid)
	if running {
		if err := c.cmd.Process.Signal(os.Interrupt); err != nil {
			running = false // lost the race with the process exiting by itself
		}
	}
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
		return usage{}, fmt.Errorf("dlacep-serve ignored the interrupt and was killed")
	}
	st := c.cmd.ProcessState
	if perr != nil {
		return usage{}, fmt.Errorf("reading dlacep-serve's peak RSS: %w", perr)
	}
	u := usage{cpu: st.UserTime() + st.SystemTime(), maxRSSKB: peak}
	ws, ok := st.Sys().(syscall.WaitStatus)
	interrupted := ok && ws.Signaled() && ws.Signal() == syscall.SIGINT
	u.clean = running && interrupted && c.stderr.Len() == 0
	return u, nil
}
