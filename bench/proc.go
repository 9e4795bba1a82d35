package main

import (
	"bufio"
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

// stampedLine is one line a child printed on stdout and when the
// harness saw it.
type stampedLine struct {
	at   time.Time
	text string
}

// child is one process the harness started: a cobra-server or a
// cobra-ingest. Its stdout is scanned line by line so the harness can
// wait for the lines the commands already print ("listening on",
// "fully aired at", "recovered"); stderr is kept for failure reports.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer

	mu      sync.Mutex
	lines   []stampedLine
	eof     bool
	changed chan struct{} // closed and replaced on every new line or EOF

	scanned chan struct{} // closed when the stdout scanner has hit EOF
	waited  sync.Once
}

// children tracks every live child so the watchdog and the failure
// paths can stop them all; a benchmark must never leave a server behind.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

func startChild(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), changed: make(chan struct{}), scanned: make(chan struct{})}
	// Should the harness itself be killed, the kernel takes the child
	// with it: a server left airing a feed would spoil the next run.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stderr = &c.stderr
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	children.Unlock()
	go func() {
		defer close(c.scanned)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			c.publish(stampedLine{at: time.Now(), text: sc.Text()}, false)
		}
		c.publish(stampedLine{}, true)
	}()
	return c, nil
}

func (c *child) publish(l stampedLine, eof bool) {
	c.mu.Lock()
	if eof {
		c.eof = true
	} else {
		c.lines = append(c.lines, l)
	}
	close(c.changed)
	c.changed = make(chan struct{})
	c.mu.Unlock()
}

// waitLine blocks until the child has printed a line containing
// substr, and returns it. It fails when the child exits first or the
// timeout passes.
func (c *child) waitLine(substr string, timeout time.Duration) (stampedLine, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	next := 0
	for {
		c.mu.Lock()
		for ; next < len(c.lines); next++ {
			if strings.Contains(c.lines[next].text, substr) {
				l := c.lines[next]
				c.mu.Unlock()
				return l, nil
			}
		}
		eof, changed := c.eof, c.changed
		c.mu.Unlock()
		if eof {
			return stampedLine{}, fmt.Errorf("%s exited before printing %q: %s",
				filepath.Base(c.cmd.Path), substr, strings.TrimSpace(c.stderr.String()))
		}
		select {
		case <-changed:
		case <-deadline.C:
			return stampedLine{}, fmt.Errorf("%s did not print %q within %v", filepath.Base(c.cmd.Path), substr, timeout)
		}
	}
}

// output returns every stdout line seen so far.
func (c *child) output() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.lines))
	for i, l := range c.lines {
		out[i] = l.text
	}
	return out
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// kill stops the child with SIGKILL — the harness never needs a clean
// shutdown, and the durability check wants exactly this — and waits
// until it has ended. Safe to call more than once.
func (c *child) kill() {
	c.waited.Do(func() {
		_ = c.cmd.Process.Kill() // already exited is fine
		<-c.scanned              // Wait closes the pipe; let the scanner finish first
		_ = c.cmd.Wait()         // the exit status of a killed child carries no news
		children.Lock()
		delete(children.live, c)
		children.Unlock()
	})
}

// wait lets the child run to completion and reports its exit status.
func (c *child) wait() error {
	var err error
	c.waited.Do(func() {
		<-c.scanned
		err = c.cmd.Wait()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
	})
	if err != nil {
		return fmt.Errorf("%s: %w: %s", filepath.Base(c.cmd.Path), err, strings.TrimSpace(c.stderr.String()))
	}
	return nil
}

// killAllChildren is the last-resort stop used by the watchdog.
func killAllChildren() {
	children.Lock()
	var all []*child
	for c := range children.live {
		all = append(all, c)
	}
	children.Unlock()
	for _, c := range all {
		c.kill()
	}
}

// startServer boots a cobra-server on a port the kernel picks, waits
// for it to listen and returns its address.
func startServer(bin string, flags ...string) (*child, string, error) {
	c, err := startChild(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	if err != nil {
		return nil, "", err
	}
	l, err := c.waitLine("cobra-server listening on ", 60*time.Second)
	if err != nil {
		c.kill()
		return nil, "", err
	}
	return c, strings.TrimPrefix(l.text, "cobra-server listening on "), nil
}
