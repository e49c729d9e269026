package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"megadata/internal/flowserve"
)

// harness is the system-under-test process as the driver sees it.
type harness struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	lines  chan string
	ingest string
	base   string // http://host:port
	locs   []string
	done   chan struct{} // closed once the process has been waited for
	err    error         // its exit status, valid after done
}

// startHarness launches this binary in harness mode and waits for ready.
func startHarness(sp spec) (*harness, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"harness", "-sites", strings.Join(sp.sites, ","), "-budget", strconv.Itoa(sp.budget)}
	if sp.fleet {
		args = append(args, "-fleet")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	// The harness must not outlive a driver that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &harness{cmd: cmd, stdin: stdin, lines: make(chan string, 1<<16), done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			h.lines <- sc.Text()
		}
		close(h.lines)
		h.err = cmd.Wait()
		close(h.done)
	}()
	line, err := h.expect("ready", 60*time.Second)
	if err != nil {
		h.kill()
		return nil, err
	}
	f := strings.Fields(line)
	if len(f) != 4 {
		h.kill()
		return nil, fmt.Errorf("harness: bad ready line %q", line)
	}
	h.ingest, h.base, h.locs = f[1], "http://"+f[2], strings.Split(f[3], ",")
	return h, nil
}

func (h *harness) send(cmd string) error {
	_, err := io.WriteString(h.stdin, cmd+"\n")
	return err
}

// expect returns the next stdout line, which must start with word.
func (h *harness) expect(word string, timeout time.Duration) (string, error) {
	select {
	case line, ok := <-h.lines:
		if !ok {
			return "", errors.New("harness exited")
		}
		if !strings.HasPrefix(line, word) {
			return "", fmt.Errorf("harness: want %s, got %q", word, line)
		}
		return line, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("harness: no %s within %v", word, timeout)
	}
}

// cpu is the harness's user+system CPU time so far.
func (h *harness) cpu() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", h.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clkTck
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clkTck = 100

// hwmMiB is the harness's peak resident set (VmHWM).
func (h *harness) hwmMiB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", h.cmd.Process.Pid))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// stop asks the harness to drain and exit, killing it if it hangs.
func (h *harness) stop() error {
	h.send("quit")
	h.stdin.Close()
	select {
	case <-h.done:
		return h.err
	case <-time.After(30 * time.Second):
		h.kill()
		return errors.New("harness: did not exit after quit")
	}
}

// kill ends the harness if it is still running and waits for it.
func (h *harness) kill() {
	select {
	case <-h.done:
		return
	default:
	}
	h.cmd.Process.Kill()
	<-h.done
}

// client is one keep-alive HTTP connection to the harness.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// result is the subset of a FlowQL JSON Result the driver checks.
type result struct {
	Op       string `json:"op"`
	Counters *struct {
		Packets uint64 `json:"packets"`
		Bytes   uint64 `json:"bytes"`
		Flows   uint64 `json:"flows"`
	} `json:"counters"`
	Merged int `json:"merged"`
}

// query runs one statement; any non-200 answer or one that does not
// decode as a Result of the statement's operator is an error.
func (c *client) query(stmt string) (*result, error) {
	resp, err := c.hc.Post(c.base+"/query", "text/plain", strings.NewReader(stmt))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var r result
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("answer does not decode: %v", err)
	}
	op := strings.Fields(stmt)[1]
	if i := strings.IndexByte(op, '('); i >= 0 {
		op = op[:i]
	}
	if r.Op != op {
		return nil, fmt.Errorf("answer op %q for %q", r.Op, stmt)
	}
	return &r, nil
}

// serverStats is the subset of GET /stats the driver reads.
type serverStats struct {
	Query struct{ RateLimited, Shed, BadRequests uint64 } `json:"query"`
	Cache struct{ Hits, Misses, Coalesced uint64 }        `json:"cache"`
	Extra struct {
		Source struct{ Frames, Delivered, Dropped, Truncated, PeakQueued uint64 } `json:"source"`
		Ingest struct{ Disconnects uint64 }                                       `json:"ingest"`
		Fleet  *struct {
			Pending       int `json:"pending"`
			DroppedFrames int `json:"dropped_frames"`
		} `json:"fleet"`
	} `json:"extra"`
}

func (c *client) stats() (*serverStats, error) {
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// answers are the central answers a freshness sample is taken from: each
// one's arrival time and exact cumulative Flows total.
type answers struct {
	mu    sync.Mutex
	at    []time.Time
	flows []uint64
	err   error
}

func (a *answers) record(at time.Time, flows uint64) {
	a.mu.Lock()
	a.at = append(a.at, at)
	a.flows = append(a.flows, flows)
	a.mu.Unlock()
}

// waitFlows blocks until an answer reports exactly flows, returning its
// arrival time.
func (a *answers) waitFlows(flows uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		a.mu.Lock()
		for i := len(a.flows) - 1; i >= 0; i-- {
			if a.flows[i] == flows {
				at := a.at[i]
				a.mu.Unlock()
				return at, nil
			}
		}
		a.mu.Unlock()
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("no answer covering %d records within %v", flows, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// freshness matches every answer to the send log: one sample per answer,
// in ms. Answers before the first record are skipped; an answer claiming
// more records than were sent is an error.
func (a *answers) freshness(log *sendLog) ([]float64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []float64
	for i, f := range a.flows {
		if f == 0 {
			continue
		}
		sent, ok := log.lastCovered(f)
		if !ok {
			return out, fmt.Errorf("answer covers %d records, only %d sent", f, log.total())
		}
		out = append(out, ms(a.at[i].Sub(sent)))
	}
	return out, a.err
}

// probe is the SSE freshness probe: one standing SELECT QUERY … FROM ALL
// whose notifications are the answers.
type probe struct {
	answers
	cancel context.CancelFunc
	done   chan struct{}
}

func startProbe(base string, locs []string) (*probe, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, subscribeURL(base, locs), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	p := &probe{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			now := time.Now()
			var n struct {
				Result result `json:"result"`
			}
			if err := json.Unmarshal(line[len("data: "):], &n); err != nil || n.Result.Counters == nil {
				p.mu.Lock()
				if p.err == nil {
					p.err = fmt.Errorf("notification does not decode: %q", line)
				}
				p.mu.Unlock()
				continue
			}
			p.record(now, n.Result.Counters.Flows)
		}
	}()
	return p, nil
}

func (p *probe) stop() {
	p.cancel()
	<-p.done
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sleepUntil waits for t and returns how late the caller resumed.
func sleepUntil(t time.Time) time.Duration {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	return time.Since(t)
}

// tally counts attempted and failed operations across a run.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErr          error
}

func (t *tally) op(err error) {
	t.attempted.Add(1)
	if err != nil {
		t.fail(1, err)
	}
}

func (t *tally) fail(n int64, err error) {
	t.failed.Add(n)
	t.mu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// openLoop issues next() statements at a fixed rate over conns
// connections for d, timing each from its due time; request i goes to
// connection i mod conns. Latencies come back in due-time order; a failed
// request is +Inf.
func openLoop(base string, conns int, rate float64, d time.Duration, next func(i int) string,
	t *tally) (lat, late []float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	total := int(rate * d.Seconds())
	lat, late = make([]float64, total), make([]float64, total)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for i := w; i < total; i += conns {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				lateBy := sleepUntil(due)
				mu.Lock()
				stmt := next(i)
				mu.Unlock()
				_, err := c.query(stmt)
				took := ms(time.Since(due))
				if err != nil {
					took = math.Inf(1)
				}
				t.op(err)
				lat[i], late[i] = took, ms(lateBy)
			}
		}(w)
	}
	wg.Wait()
	return lat, late
}

// closedLoopSegments is how many equal segments a closed loop is split
// into; the reported rate and CPU cost are the segments' medians, so one
// disturbed stretch of a run does not move them.
const closedLoopSegments = 5

// closedLoop sends next() statements back to back over conns connections
// for d and returns the median segment's answers per second and harness
// CPU ms per answer.
func closedLoop(h *harness, conns int, d time.Duration, next func() string, t *tally) (qps, cpuPerQuery float64) {
	var mu sync.Mutex
	var answered atomic.Int64
	seg := d / closedLoopSegments
	var rates, costs []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(h.base)
			defer c.close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				stmt := next()
				mu.Unlock()
				_, err := c.query(stmt)
				t.op(err)
				if err == nil {
					answered.Add(1)
				}
			}
		}()
	}
	start := time.Now()
	n0, cpu0, t0 := answered.Load(), h.cpu(), start
	for k := 0; k < closedLoopSegments; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k+1) * seg)))
		n1, cpu1, t1 := answered.Load(), h.cpu(), time.Now()
		rates = append(rates, float64(n1-n0)/t1.Sub(t0).Seconds())
		costs = append(costs, ms(cpu1-cpu0)/float64(max(n1-n0, 1)))
		n0, cpu0, t0 = n1, cpu1, t1
	}
	close(stop)
	wg.Wait()
	return median(rates), median(costs)
}

// routerSendBuffer is the driver's socket send buffer on router
// connections.
const routerSendBuffer = 256 << 10

// dialSite opens a router connection announcing site ("" = none).
func dialSite(addr, site string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// A fixed send buffer keeps the driver's share of the in-flight
	// backlog the same from run to run.
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(routerSendBuffer)
	}
	if site != "" {
		if err := flowserve.WritePreamble(c, site); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// waitFrames polls /stats until the source has taken n frames.
func waitFrames(c *client, n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := c.stats()
		if err != nil {
			return err
		}
		if st.Extra.Source.Frames+st.Extra.Source.Truncated >= n {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("source took fewer than %d frames within %v", n, timeout)
}
