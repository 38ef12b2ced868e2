package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// build compiles the repository's command pkg (e.g. "./cmd/queued") from
// root into dir and returns the binary's path.
func build(ctx context.Context, root, dir, pkg string) (string, error) {
	out, err := filepath.Abs(filepath.Join(dir, filepath.Base(pkg)))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w", pkg, err)
	}
	return out, nil
}

// server is one running queued child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// freeAddr returns a loopback address with a port nobody listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs bin with args plus -addr, logs its output to logPath,
// and waits until /healthz answers 200. It returns the time from exec to
// that first 200: the server's set-up time.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }()

	hc := &http.Client{Timeout: time.Second}
	deadline := t0.Add(90 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("%s exited during start-up (see %s)", filepath.Base(bin), logPath)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("%s not healthy after 90s (see %s)", filepath.Base(bin), logPath)
		}
	}
}

// pid is the server's process id.
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to shut down (SIGTERM drains live ingest) and kills
// it if it has not exited within 10s; it returns once the process is gone.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}
