package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the plumbing around the system under test: building the
// daemons, running them as child processes on ephemeral loopback ports,
// and talking to them over HTTP.

// loadClients bounds the load generator: at most this many goroutines send
// requests, over at most this many connections per host. It matches the
// 2-core box the baseline was measured on, so the generator never needs
// more CPUs than the box has.
const loadClients = 2

// stopGrace is how long a stopped daemon may take to drain and flush its
// snapshot saves before it is killed.
const stopGrace = 60 * time.Second

// env is one benchmark run's context: where the system under test lives,
// the inputs' seed and length, and every process the run started.
type env struct {
	root    string // repository root of the system under test
	work    string // this run's scratch directory, removed by close
	bin     string // the built schemaevod and schemaevo-proxy
	seed    int64
	seconds time.Duration
	log     io.Writer
	client  *http.Client

	mu    sync.Mutex
	procs []*proc
	dirs  int
}

// newEnv builds the daemons into the scratch directory work, before any
// clock starts. The env owns work from then on: close removes it.
func newEnv(ctx context.Context, root, work string, seed int64, seconds time.Duration, log io.Writer) (*env, error) {
	e := &env{
		root: root, work: work, bin: filepath.Join(work, "bin"),
		seed: seed, seconds: seconds, log: log,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     loadClients,
			MaxIdleConnsPerHost: loadClients,
			DisableCompression:  true,
		}},
	}
	if err := buildDaemons(ctx, root, e.bin, log); err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	return e, nil
}

func buildDaemons(ctx context.Context, root, out string, log io.Writer) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out+string(filepath.Separator),
		"./cmd/schemaevod", "./cmd/schemaevo-proxy")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build daemons: %w", err)
	}
	return nil
}

// close kills whatever is still running, waits for it, and removes the
// scratch directory.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.mu.Unlock()
	for _, p := range procs {
		e.kill(p)
	}
	os.RemoveAll(e.work)
}

// freshDir returns a new empty directory under the scratch directory.
func (e *env) freshDir(name string) (string, error) {
	e.mu.Lock()
	e.dirs++
	dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", name, e.dirs))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// proc is one daemon child process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string        // http://host:port, once it listens
	exited chan struct{} // closed after the process has been waited for

	mu   sync.Mutex
	logs []string // the last lines of its log, for error reports
}

func (p *proc) remember(line string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.logs) == 20 {
		p.logs = p.logs[1:]
	}
	p.logs = append(p.logs, line)
}

func (p *proc) lastLogs() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.logs, "\n")
}

// listenRE finds the bound address in the log line both daemons print once
// their listener is open (schemaevod: "schemaevod listening", proxy:
// "listening").
var listenRE = regexp.MustCompile(`msg="?(?:schemaevod listening|listening)"? addr=(\S+)`)

// start launches one of the built binaries on an ephemeral port and waits
// until /v1/healthz answers 200. It returns the time from spawn to ready:
// one set-up sample.
func (e *env) start(ctx context.Context, name, bin string, args ...string) (*proc, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(filepath.Join(e.bin, bin), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			p.remember(line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr) // a too-long line stops Scan; keep draining
		cmd.Wait()
		close(p.exited)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
	case <-p.exited:
		return nil, 0, fmt.Errorf("%s exited before listening:\n%s", name, p.lastLogs())
	case <-ctx.Done():
		return nil, 0, fmt.Errorf("%s: %w", name, ctx.Err())
	}
	for {
		resp, _, err := e.get(ctx, p.url+"/v1/healthz")
		if err == nil && resp.StatusCode == http.StatusOK {
			return p, time.Since(t0), nil
		}
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("%s exited before it was healthy:\n%s", name, p.lastLogs())
		case <-ctx.Done():
			return nil, 0, fmt.Errorf("%s never became healthy: %w", name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM — the daemons drain and flush pending snapshot saves —
// and waits for the exit, killing after stopGrace.
func (e *env) stop(p *proc) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(stopGrace):
		e.kill(p)
	}
}

// kill ends p at once and waits for it; a process that already exited is
// left as is.
func (e *env) kill(p *proc) {
	p.cmd.Process.Kill()
	<-p.exited
}

func (e *env) do(ctx context.Context, method, url, ctype string, body []byte) (*http.Response, []byte, error) {
	var buf bytes.Buffer
	resp, err := e.send(ctx, method, url, ctype, body, &buf)
	return resp, buf.Bytes(), err
}

// send performs one request and reads the response body into buf, reusing
// its storage: the closed loops read tens of thousands of bodies, and
// allocating each would put the load generator's GC into the latencies.
func (e *env) send(ctx context.Context, method, url, ctype string, body []byte, buf *bytes.Buffer) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp, err
}

func (e *env) get(ctx context.Context, url string) (*http.Response, []byte, error) {
	return e.do(ctx, http.MethodGet, url, "", nil)
}

// counters reads a daemon's /v1/metrics exposition, summing each metric
// over its label sets.
func (e *env) counters(ctx context.Context, base string) (map[string]float64, error) {
	resp, body, err := e.get(ctx, base+"/v1/metrics")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/metrics: status %d", base, resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}

var heapAllocRE = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)$`)

// heapMB reads a daemon's live heap after a forced GC from its pprof
// endpoint.
func (e *env) heapMB(ctx context.Context, p *proc) (float64, error) {
	resp, body, err := e.get(ctx, p.url+"/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	m := heapAllocRE.FindSubmatch(body)
	if resp.StatusCode != http.StatusOK || m == nil {
		return 0, fmt.Errorf("%s: no HeapAlloc in the heap profile (status %d)", p.name, resp.StatusCode)
	}
	n, err := strconv.ParseUint(string(m[1]), 10, 64)
	return float64(n) / 1e6, err
}
