package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir receives result.json, trace.json, server logs and the temp dirs
// of a run. It is inside the bench directory so that a checkout is the
// only place the benchmark writes; .gitignore names it.
const outDir = "bench/out"

// requireRepoRoot fails unless the working directory is the root of the
// v2v module: the server is built from ./cmd/v2vserve and BENCHMARK.json
// is read from here.
func requireRepoRoot() error {
	raw, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(string(raw), "module v2v\n") {
		return errors.New("run from the root of the v2v repository: go run ./bench")
	}
	return nil
}

// buildServer compiles cmd/v2vserve into dir and returns the binary path.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "v2vserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/v2vserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/v2vserve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is a running v2vserve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error
}

// commonServerFlags are passed to every server the benchmark starts:
// engine parallelism is explicit, and the flight recorder ring is large
// enough to keep every request of a traced pass.
func commonServerFlags(parallel int) []string {
	return []string{"-parallel", strconv.Itoa(parallel), "-flight-recorder-size", "8192"}
}

// startServer launches bin on an ephemeral loopback port with the given
// flags, captures its stderr in logPath, and waits until /healthz answers.
// Cancelling ctx sends SIGTERM (then SIGKILL after a grace period), so an
// interrupted benchmark leaves no server behind.
func startServer(ctx context.Context, bin, logPath string, flags []string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := startServerOnce(ctx, bin, logPath, flags)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startServerOnce(ctx context.Context, bin, logPath string, flags []string) (*server, error) {
	// The server cannot report a kernel-chosen port, so reserve one here
	// and hand it over; startServer retries if another process takes it in
	// between.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, append([]string{"-listen", addr}, flags...)...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	//v2v:nolint(sendblock) done is buffered for this one send, which therefore never blocks
	go func() { s.done <- cmd.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			logf.Close()
			if err == nil {
				err = errors.New("exit status 0")
			}
			return nil, fmt.Errorf("v2vserve exited during start-up (see %s): %w", logPath, err)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		default:
		}
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("v2vserve did not answer /healthz within 10s (see %s)", logPath)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, lets the server drain, and waits for it to exit;
// after 10 s it kills it. Safe to call once.
func (s *server) stop() error {
	defer s.log.Close()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() != 0 {
			return fmt.Errorf("v2vserve exit: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("v2vserve did not drain within 10s; killed")
	}
}

// procCPU returns the user+system CPU seconds a process has used, from
// /proc/<pid>/stat (clock ticks of 1/100 s). The benchmark reads its own
// process and the server's the same way.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, i.e. 11 and 12 after the ")".
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat format", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat format", pid)
	}
	return (ut + st) / 100, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
