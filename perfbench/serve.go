package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// daemon is a `rid serve` child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	gc   atomic.Int64 // gctrace lines seen on stderr
	done chan struct{}
}

const daemonTimeout = 30 * time.Second

// startDaemon launches `rid serve` on a free loopback port and returns
// once /healthz answers 200, with the time that took.
func startDaemon(bin string, env []string, args ...string) (*daemon, float64, error) {
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	// The daemon must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "gc ") {
				d.gc.Add(1)
			} else if _, a, ok := strings.Cut(line, "serving analysis API on "); ok {
				a, _, _ = strings.Cut(a, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case d.url = <-addr:
	case <-d.done:
		d.stop()
		return nil, 0, fmt.Errorf("rid serve exited before listening")
	case <-time.After(daemonTimeout):
		d.stop()
		return nil, 0, fmt.Errorf("rid serve did not start within %v", daemonTimeout)
	}
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t).Seconds(), nil
			}
		}
		if time.Since(t) > daemonTimeout {
			d.stop()
			return nil, 0, fmt.Errorf("rid serve /healthz not ready within %v", daemonTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts the daemon, lets it drain, and waits for it and its
// stderr reader to finish. It returns the daemon's peak RSS in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(os.Interrupt) //nolint:errcheck // an exited process is fine
	exited := make(chan struct{})
	go func() {
		<-d.done
		d.cmd.Wait() //nolint:errcheck // the exit status of an interrupted daemon carries nothing
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(daemonTimeout):
		d.cmd.Process.Kill() //nolint:errcheck
		<-exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// health reads one /healthz counter.
func (d *daemon) health(field string) (float64, error) {
	resp, err := http.Get(d.url + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	v, ok := h[field].(float64)
	if !ok {
		return 0, fmt.Errorf("/healthz has no numeric %q", field)
	}
	return v, nil
}

type analyzeRequest struct {
	Files   map[string]string `json:"files"`
	Metrics bool              `json:"metrics,omitempty"`
	Trace   bool              `json:"trace,omitempty"`
}

type analyzeResponse struct {
	Report    string  `json:"report"`
	Degraded  bool    `json:"degraded"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Phases    []struct {
		Phase string  `json:"phase"`
		MS    float64 `json:"ms"`
	} `json:"phases"`
	Metrics json.RawMessage `json:"metrics"`
	Trace   string          `json:"trace"`
}

// post sends one pre-encoded request and times it from send to the last
// byte of the response.
func post(client *http.Client, url string, body []byte) (ms float64, resp analyzeResponse, msg string) {
	t := time.Now()
	hr, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, resp, err.Error()
	}
	data, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	ms = msSince(t)
	if err != nil {
		return ms, resp, err.Error()
	}
	if hr.StatusCode != http.StatusOK {
		return ms, resp, fmt.Sprintf("status %d: %s", hr.StatusCode, firstLine(string(data)))
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return ms, resp, fmt.Sprintf("decode response: %v", err)
	}
	return ms, resp, ""
}

// check describes why a response is wrong, or returns "".
func (a analyzeResponse) check(want string) string {
	switch {
	case a.Degraded:
		return "degraded response"
	case a.Cached:
		return "memoized response (cached: true)"
	case a.Report != want:
		return fmt.Sprintf("report differs from the CLI's (%d vs %d bytes)", len(a.Report), len(want))
	}
	return ""
}

// body encodes request k: the module with iteration k's edits, or the
// unedited module for k = 0. A traced request also asks for the run's
// metrics and span trace, which bypasses the memo.
func (r *run) body(k int, traced bool) ([]byte, error) {
	files := r.c.files
	if k > 0 {
		files = r.c.withEdits(r.seed, k)
	}
	return json.Marshal(analyzeRequest{Files: files, Metrics: traced, Trace: traced})
}

// serveWarmups is how many edited requests run untimed after start-up,
// so the daemon's resident state is warm before timing as a caller finds
// it.
const serveWarmups = 5

// runServe drives one `rid serve` daemon with a single closed-loop client:
// each request waits for the previous reply. Each request carries the
// module with its iteration's edits, so the result memo never hits.
func (r *run) runServe() error {
	dir := filepath.Join(r.work, "module")
	if err := r.c.write(dir); err != nil {
		return err
	}
	ref, err := runCLI(r.rid, dir, nil, "-dir", ".")
	if err != nil {
		return err
	}
	want := ref.out
	if msg := r.c.checkTruth(want); msg != "" || (ref.code != 0 && ref.code != 1) {
		r.correct = false
		fmt.Printf("# FAILED CLI reference (exit %d): %s\n", ref.code, msg)
	}

	// Set-up is daemon launch until /healthz answers 200; the last
	// daemon launched serves the run.
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		var s float64
		if d, s, err = startDaemon(r.rid, nil); err != nil {
			return err
		}
		r.setup = append(r.setup, s)
	}
	client := &http.Client{Timeout: 2 * daemonTimeout}

	k := 0
	for ; k <= serveWarmups; k++ {
		body, err := r.body(k, false)
		if err != nil {
			d.stop()
			return err
		}
		_, resp, msg := post(client, d.url, body)
		if msg == "" {
			msg = resp.check(want)
		}
		if msg != "" {
			r.correct = false
			fmt.Printf("# FAILED warm-up request %d (CLI byte equality): %s\n", k, msg)
		}
	}
	untracedEnd, tracedEnd := r.deadlines(time.Now())
	for more(untracedEnd, len(r.times)) {
		body, err := r.body(k, false)
		if err != nil {
			d.stop()
			return err
		}
		r.attempted++
		ms, resp, msg := post(client, d.url, body)
		if msg == "" {
			msg = resp.check(want)
		}
		if msg != "" {
			r.note("request %d: %s", k, msg)
		} else {
			r.times = append(r.times, ms)
		}
		k++
	}
	memoHits, err := d.health("result_cache_hits")
	r.rss = append(r.rss, d.stop())
	if err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	return r.traceServe(dir, want, k, memoHits, tracedEnd, client)
}

// traceServe is the traced part of serve-edits. A second daemon runs
// with gctrace and an access log; its requests ask for the per-request
// phases, metrics and span trace. The layers the daemon does not time
// (frontend, lower, callgraph, report) come from traced children on the
// same edited module, in the second half of the traced time.
func (r *run) traceServe(dir, want string, k int, memoHits float64, end time.Time, client *http.Client) error {
	accessLog := filepath.Join(r.work, "access.jsonl")
	d, _, err := startDaemon(r.rid, []string{"GODEBUG=gctrace=1"}, "-access-log", accessLog)
	if err != nil {
		return err
	}
	requestsEnd := end.Add(-time.Until(end) / 2)
	gc0 := d.gc.Load()
	requests := 0
	for more(requestsEnd, requests) {
		body, err := r.body(k, true)
		if err != nil {
			d.stop()
			return err
		}
		k++
		r.attempted++
		ms, resp, msg := post(client, d.url, body)
		if msg == "" {
			msg = resp.check(want)
		}
		if msg != "" {
			r.note("traced request %d: %s", k, msg)
			continue
		}
		s, err := resp.sample(ms)
		if err != nil {
			d.stop()
			return err
		}
		r.samples = append(r.samples, s)
		requests++
	}
	gcPerRequest := float64(d.gc.Load()-gc0) / float64(requests)
	d.stop()
	queueWait, err := medianQueueWait(accessLog)
	if err != nil {
		return err
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	ed := &editedDir{c: r.c, dir: dir, seed: r.seed}
	var children []sample
	for more(end, len(children)) {
		if err := ed.apply(k); err != nil {
			return err
		}
		k++
		r.attempted++
		c, err := runCLI(self, dir, nil, "traced-child", "-dir", dir)
		if err != nil {
			return err
		}
		s, msg := c.traced(want)
		if msg != "" {
			r.note("traced child %d: %s", k, msg)
			continue
		}
		kept := sample{}
		for _, key := range childLayers {
			kept[key] = s[key]
		}
		children = append(children, kept)
	}
	r.layers = layerMetrics(append(r.samples, children...), median(r.times))
	r.layers["serve.queue_wait_ms"] = queueWait
	r.layers["serve.memo_hits"] = memoHits
	r.layers["gc.cycles"] = gcPerRequest
	return nil
}

// childLayers are the serve-edits layers taken from traced children: the
// ones the daemon's phases do not time. The daemon receives sources in the
// request body, so it reads no files.
var childLayers = []string{
	"frontend.ms", "frontend.alloc_b_per_src_b", "lower.ms", "lower.alloc_b_per_src_b",
	"lower.ir_instrs", "callgraph.ms", "callgraph.sccs", "classify.funcs_selected", "report.ms",
}

// sample turns one traced response into layer times: the daemon's own
// phase totals, with solver time split between exec and ipp in the
// proportion the response's span trace shows.
func (a analyzeResponse) sample(roundTrip float64) (sample, error) {
	ph := map[string]float64{}
	for _, p := range a.Phases {
		ph[p.Phase] = p.MS
	}
	var spans []span
	for _, line := range strings.Split(strings.TrimSpace(a.Trace), "\n") {
		var sp span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			return nil, fmt.Errorf("decode span %q: %w", line, err)
		}
		spans = append(spans, sp)
	}
	total, inIPP := phaseTotals(spans)
	s := sample{
		"trace.wall_ms":      roundTrip,
		"serve.server_ms":    a.ElapsedMS,
		"serve.transport_ms": roundTrip - a.ElapsedMS,
		"report.bytes":       float64(len(a.Report)),
	}
	s.setPhases(ph["classify"], ph["enumerate"], ph["exec"], ph["ipp"], ph["solver"],
		ph["solver"]*ratio(inIPP, total["solver"]), ph["cacheio"])
	var snap obs.Snapshot
	if err := json.Unmarshal(a.Metrics, &snap); err != nil {
		return nil, fmt.Errorf("decode response metrics: %w", err)
	}
	s.addCounters(snap)
	return s, nil
}

// medianQueueWait reads the access log's admission waits, in ms.
func medianQueueWait(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var waits []float64
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Route       string  `json:"route"`
			QueueWaitUS float64 `json:"queue_wait_us"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return 0, fmt.Errorf("access log: %w", err)
		}
		if rec.Route == "analyze" {
			waits = append(waits, rec.QueueWaitUS/1e3)
		}
	}
	if len(waits) == 0 {
		return 0, fmt.Errorf("access log has no analyze requests")
	}
	return median(waits), nil
}
