package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// child is a helper process started from this binary in another role
// (edge, origin, replay). Its first stdout line announces a value
// (a listen URL, or "ready"); the rest of stdout is returned by stop.
type child struct {
	cmd   *exec.Cmd
	out   *bufio.Reader
	first string
}

// startChild runs this executable as `<exe> <role> args...` and waits
// for its first output line.
func startChild(role string, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate executable: %w", err)
	}
	cmd := exec.Command(exe, append([]string{role}, args...)...)
	cmd.Stderr = os.Stderr
	// If this process dies without stopping the child (killed, say),
	// the kernel kills the child too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	c := &child{cmd: cmd, out: bufio.NewReader(stdout)}
	line, err := c.out.ReadString('\n')
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("%s did not start: %v", role, err)
	}
	c.first = strings.TrimSpace(line)
	return c, nil
}

// stop asks the child to exit (SIGTERM) and collects it; a child that
// has not exited within 10 s is killed.
func (c *child) stop() (string, float64, error) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	return c.wait(10 * time.Second)
}

// wait collects a child: the rest of its stdout after the first line,
// its peak RSS in MB and its exit error. A child still running after
// timeout is killed.
func (c *child) wait(timeout time.Duration) (string, float64, error) {
	type exit struct {
		out []byte
		err error
	}
	done := make(chan exit, 1)
	go func() {
		out, _ := io.ReadAll(c.out)
		done <- exit{out, c.cmd.Wait()} // Wait only after the pipe is drained
	}()
	var e exit
	select {
	case e = <-done:
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill()
		e = <-done
		e.err = fmt.Errorf("child still running after %v, killed", timeout)
	}
	return string(e.out), maxRSSMB(c.cmd.ProcessState), e.err
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
