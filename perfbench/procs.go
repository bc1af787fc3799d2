package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a program process the benchmark started: an ecoserve or
// ecoreplica daemon listening on a loopback port it picked itself.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startChild runs bin from binDir with args and waits until it announces
// its listening address on standard output (a line ending in
// "listening on <addr>"). Its standard error passes through.
func startChild(binDir, bin string, args ...string) (*child, error) {
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, "listening on "); i >= 0 {
				select {
				case addrc <- strings.TrimPrefix(line[i+len("listening on "):], "http://"):
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
		c.done <- cmd.Wait()
	}()
	select {
	case c.addr = <-addrc:
		return c, nil
	case err := <-c.done:
		return nil, fmt.Errorf("%s exited before listening: %v", bin, err)
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not announce an address within 20s", bin)
	}
}

// peakRSSMB is the child's peak resident set since its last reset.
func (c *child) peakRSSMB() float64 { return peakRSSMB(c.cmd.Process.Pid) }

func (c *child) resetPeakRSS() { resetPeakRSS(c.cmd.Process.Pid) }

// stop asks the child to shut down gracefully and waits until it has
// exited, killing it if it takes longer than ten seconds.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// resetPeakRSS restarts the peak-RSS count of process pid (0 for this
// process), so a later peakRSSMB reports the peak since the reset.
func resetPeakRSS(pid int) {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	_ = os.WriteFile(path, []byte("5"), 0) // best effort: without it the peak covers the process lifetime
}

// peakRSSMB reads VmHWM, the peak resident set, of process pid (0 for
// this process) from /proc, in MiB; 0 when unavailable.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
