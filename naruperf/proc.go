package main

// Child processes: the trainer and the server under test. Every child is
// started in its own process, its output kept in the run's work directory,
// and stopped and waited for before the benchmark exits.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runTool runs a command to completion with its output in logPath.
func runTool(logPath string, name string, args ...string) error {
	f, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		tail, _ := os.ReadFile(logPath)
		return fmt.Errorf("%s %s: %v\n%s", filepath.Base(name), strings.Join(args, " "), err, lastLines(string(tail), 8))
	}
	return nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// child is a running server process and the base URL it listens on.
type child struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{} // closed once the process has been waited for
	err    error         // its exit status, set before exited closes
}

// startServer launches a server that prints "serving on http://ADDR/..." on
// its standard output and waits until its /readyz answers 200.
func startServer(logPath string, name string, args ...string) (*child, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(name, args...)
	cmd.Stderr = f
	// A benchmark that dies without stopping its server takes it along.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	s := &child{cmd: cmd, log: f, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(f, line)
			if i := strings.Index(line, "http://"); !sent && i >= 0 {
				rest := line[i+len("http://"):]
				if j := strings.IndexByte(rest, '/'); j >= 0 {
					rest = rest[:j]
				}
				addr <- rest
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, out)
		s.err = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.After(60 * time.Second)
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		s.stop()
		return nil, fmt.Errorf("%s exited before serving: %v\n%s", filepath.Base(name), s.err, s.logTail())
	case <-deadline:
		s.stop()
		return nil, fmt.Errorf("%s did not announce its address", filepath.Base(name))
	}
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("%s never became ready: %v", filepath.Base(name), err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *child) logTail() string {
	b, _ := os.ReadFile(s.log.Name())
	return lastLines(string(b), 8)
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MB.
func (s *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the server to drain with SIGTERM, kills it after a grace period
// and waits for it to exit.
func (s *child) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}
