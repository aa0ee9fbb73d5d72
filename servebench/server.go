package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is a running bfpp-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

// startServer launches bfpp-serve on an ephemeral loopback port with the
// given GOMAXPROCS and returns once it has printed its address.
func startServer(bin string, gomaxprocs int, storeDir string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Read stdout to EOF so the child never blocks on a full pipe;
		// the address line is the one that matters.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "bfpp-serve: listening on "); ok {
				addr <- a
			}
		}
		s.done <- cmd.Wait()
	}()
	select {
	case s.base = <-addr:
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("bfpp-serve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("bfpp-serve did not listen within 30s")
	}
}

// stop sends SIGTERM, waits for the process to exit, and kills it if the
// graceful drain takes longer than ten seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuSeconds is the server's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", s.cmd.Process.Pid)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// hostSteal returns the cumulative steal and total CPU time of the host
// from /proc/stat, in clock ticks.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// scrapeMetrics reads the named counters from GET /metrics.
func scrapeMetrics(ctx context.Context, c *http.Client, base string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	return out, sc.Err()
}

// reply is one request's outcome as the load generator sees it.
type reply struct {
	status  int
	partial bool
	answer  answer
}

// post sends one request and decodes the fields verification needs.
func post(ctx context.Context, c *http.Client, base string, q request) (reply, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+q.path(), bytes.NewReader(q.body()))
	if err != nil {
		return reply{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, answer: answer{req: q}}
	if resp.StatusCode != http.StatusOK {
		return r, nil
	}
	var out struct {
		Table   string          `json:"table"`
		Cached  bool            `json:"cached"`
		Partial bool            `json:"partial"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return r, fmt.Errorf("decoding %s reply: %w", q.path(), err)
	}
	r.partial = out.Partial
	r.answer.table, r.answer.cached, r.answer.result = out.Table, out.Cached, out.Result
	return r, nil
}

// ok reports whether a reply counts as a success: 200 and not partial.
func (r reply) ok() bool { return r.status == http.StatusOK && !r.partial }

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}
