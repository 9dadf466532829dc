package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	buildDir  = ".bench_build" // git-ignored; everything the benchmark writes lives under it
	serverPkg = "./cmd/corundum-server"
	serverBin = "corundum-server"
	bootWait  = 20 * time.Second
)

// repoRoot walks up from the working directory to the module root, so the
// benchmark runs from the checkout root (go run) and from its own
// directory (go test) alike.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(data, []byte("module corundum\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the corundum module: no go.mod found")
		}
		dir = parent
	}
}

// buildServer compiles the server from the checkout's own source.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, serverBin)
	cmd := exec.Command("go", "build", "-o", bin, serverPkg)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", serverPkg, err, out)
	}
	return bin, nil
}

// addrSniffer collects the child's stdout and reports the listen address
// from its "serving on <addr>" line.
type addrSniffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (s *addrSniffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	if !s.sent {
		const marker = "serving on "
		out := s.buf.String()
		if i := strings.Index(out, marker); i >= 0 {
			if rest := out[i+len(marker):]; strings.ContainsAny(rest, " \n") {
				s.addr <- rest[:strings.IndexAny(rest, " \n")]
				s.sent = true
			}
		}
	}
	return len(p), nil
}

func (s *addrSniffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// child is one running corundum-server process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stdout *addrSniffer
	stderr bytes.Buffer
	exited chan struct{}
}

// startServer launches the server with default flags on a free loopback
// port (the kernel picks it; the child prints it) and returns once it
// answers PING.
func startServer(bin, poolPath string) (*child, error) {
	c := &child{stdout: &addrSniffer{addr: make(chan string, 1)}, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-pool", poolPath)
	c.cmd.Stdout = c.stdout
	c.cmd.Stderr = &c.stderr
	// The child must not outlive the benchmark, whatever kills the benchmark.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		c.cmd.Wait() // the exit status is not news: the benchmark signals every child itself
		close(c.exited)
	}()
	select {
	case c.addr = <-c.stdout.addr:
	case <-c.exited:
		return nil, fmt.Errorf("server exited during boot\n%s%s", c.stdout, c.stderr.String())
	case <-time.After(bootWait):
		c.kill()
		return nil, fmt.Errorf("server did not listen within %s\n%s%s", bootWait, c.stdout, c.stderr.String())
	}
	conn, err := dial(c.addr)
	if err == nil {
		err = conn.ping()
		conn.close()
	}
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("server at %s not answering PING: %w", c.addr, err)
	}
	return c, nil
}

// signalAndWait sends sig and waits for the process to be reaped.
func (c *child) signalAndWait(sig syscall.Signal, patience time.Duration) error {
	c.cmd.Process.Signal(sig) // fails only when the child is already gone
	select {
	case <-c.exited:
		return nil
	case <-time.After(patience):
		c.kill()
		return fmt.Errorf("server ignored %v for %s; killed", sig, patience)
	}
}

// kill is the teardown: SIGKILL, then wait until the child is reaped.
// (A clean SIGTERM shutdown writes the whole pool image to disk; only the
// restart check pays for that.)
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// procCPUSeconds is the time a process's threads have spent on a CPU, from
// the scheduler's own nanosecond account (/proc/<pid>/task/*/schedstat).
// The utime+stime of /proc/<pid>/stat are sampled at the 10 ms tick, and a
// process that works in step with a periodic load is sampled in step too.
func procCPUSeconds(pid int) (float64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", pid, err)
	}
	var ns uint64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // a thread that exited between the glob and the read
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("short schedstat line %q in %s", data, p)
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat line %q in %s", data, p)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// peakRSSMB is the child's VmHWM in MiB.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// wire is one protocol connection with its own reply buffer. Replies are
// stamped with the time of the read that delivered them.
type wire struct {
	c     net.Conn
	buf   []byte
	r, w  int
	stamp time.Time // when the bytes now in buf arrived
}

func dial(addr string) (*wire, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &wire{c: c, buf: make([]byte, 64<<10)}, nil
}

func (w *wire) close() { w.c.Close() }

func (w *wire) send(p []byte) error {
	_, err := w.c.Write(p)
	return err
}

// line returns the next reply line without its CRLF. The slice is valid
// until the next call.
func (w *wire) line() ([]byte, error) {
	for {
		if i := bytes.IndexByte(w.buf[w.r:w.w], '\n'); i >= 0 {
			l := w.buf[w.r : w.r+i]
			w.r += i + 1
			if n := len(l); n > 0 && l[n-1] == '\r' {
				l = l[:n-1]
			}
			return l, nil
		}
		if w.r > 0 {
			w.w = copy(w.buf, w.buf[w.r:w.w])
			w.r = 0
		}
		if w.w == len(w.buf) {
			return nil, errors.New("reply line longer than the read buffer")
		}
		n, err := w.c.Read(w.buf[w.w:])
		if err != nil {
			return nil, err
		}
		w.stamp = time.Now()
		w.w += n
	}
}

// bulk sends an admin command and returns its "$<len>" bulk reply body.
func (w *wire) bulk(cmd string) (string, error) {
	if err := w.send([]byte(cmd + "\n")); err != nil {
		return "", err
	}
	head, err := w.line()
	if err != nil {
		return "", err
	}
	if len(head) == 0 || head[0] != '$' {
		return "", fmt.Errorf("%s: want a bulk reply, got %q", cmd, head)
	}
	n, err := strconv.Atoi(string(head[1:]))
	if err != nil || n < 0 {
		return "", fmt.Errorf("%s: bad bulk header %q", cmd, head)
	}
	var body bytes.Buffer
	for body.Len() < n {
		l, err := w.line()
		if err != nil {
			return "", err
		}
		body.Write(l)
		body.WriteByte('\n')
	}
	// The body is followed by CRLF. When the body ends in a newline that
	// CRLF is a line of its own; otherwise it ended the body's last line.
	if body.Len() == n {
		if _, err := w.line(); err != nil {
			return "", err
		}
	}
	return body.String(), nil
}

func (w *wire) ping() error {
	if err := w.send([]byte("PING\n")); err != nil {
		return err
	}
	l, err := w.line()
	if err != nil {
		return err
	}
	if string(l) != "+PONG" {
		return fmt.Errorf("PING answered %q", l)
	}
	return nil
}

// fields parses an INFO/STATS body of "name: value" lines into numbers;
// non-numeric values are skipped.
func fields(body string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
