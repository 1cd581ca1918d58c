package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one gps-serve child process listening on a loopback port.
type server struct {
	cmd    *exec.Cmd
	addr   string // host:port of the API listener
	shards int    // effective shard count from the boot line
	mu     sync.Mutex
	log    bytes.Buffer // the child's standard error, for diagnostics
	exited chan struct{}
}

// startServer execs gps-serve with args plus a loopback address on a free
// port and returns once the child has printed its listening line. The child
// is killed if this process dies first.
func startServer(bin string, args ...string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gps-serve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan string, 1) // one listening line per child
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log.WriteString(line + "\n")
			s.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "gps-serve: listening on "); ok {
				select {
				case ready <- rest:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case line := <-ready:
		s.addr, _, _ = strings.Cut(line, " ")
		if i := strings.Index(line, "shards="); i >= 0 {
			f := strings.FieldsFunc(line[i+len("shards="):], func(r rune) bool { return r < '0' || r > '9' })
			if len(f) > 0 {
				s.shards, _ = strconv.Atoi(f[0])
			}
		}
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("gps-serve exited during boot: %s", s.logText())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("gps-serve did not start listening within 60s")
	}
}

func (s *server) logText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.log.String())
}

// peakRSSMB reads the child's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop asks the child to shut down (SIGTERM), kills it if it has not exited
// after 10s, and waits until it is gone. Safe to call more than once.
func (s *server) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}
