package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cliRun is one `rid` child process as seen from outside.
type cliRun struct {
	ms     float64 // launch to exit
	out    string  // stdout: the report
	stderr string
	code   int
	rssMB  float64 // the child's peak RSS
}

func runCLI(bin, dir string, env []string, args ...string) (cliRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t := time.Now()
	err := cmd.Run()
	res := cliRun{ms: msSince(t), out: stdout.String(), stderr: stderr.String()}
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		res.code = exitErr.ExitCode()
	} else if err != nil {
		return res, err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024
	}
	return res, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// check describes why a CLI run's output is wrong, or returns "". Exit 1
// means "bugs reported"; anything but 0 or 1 is a failure.
func (c cliRun) check(want string) string {
	switch {
	case c.code != 0 && c.code != 1:
		return fmt.Sprintf("exit %d: %s", c.code, firstLine(c.stderr))
	case c.out != want:
		return fmt.Sprintf("report differs from the reference (%d vs %d bytes)", len(c.out), len(want))
	}
	return ""
}

func firstLine(s string) string {
	s, _, _ = strings.Cut(strings.TrimSpace(s), "\n")
	return s
}

// runBatch drives `rid -dir` as a child process per iteration.
func (r *run) runBatch() error {
	dir := filepath.Join(r.work, "corpus")
	if err := r.c.write(dir); err != nil {
		return err
	}
	args := []string{"-dir", ".", "-workers", strconv.Itoa(r.w.workers)}

	// The first run is the reference every later output must equal; it
	// must itself match the ground truth. Without a store, the discarded
	// warm-up runs are the set-up.
	var want string
	warmups := setupRepeats
	if r.w.store {
		warmups = 1
	}
	for i := 0; i < warmups; i++ {
		c, err := runCLI(r.rid, dir, nil, args...)
		if err != nil {
			return err
		}
		if i == 0 {
			want = c.out
			if msg := r.c.checkTruth(want); msg != "" || (c.code != 0 && c.code != 1) {
				r.correct = false
				fmt.Printf("# FAILED reference run (exit %d): %s\n", c.code, msg)
			}
		} else if msg := c.check(want); msg != "" {
			r.correct = false
			fmt.Printf("# FAILED warm-up run: %s\n", msg)
		}
		if !r.w.store {
			r.setup = append(r.setup, c.ms/1e3)
		}
	}
	if r.w.store {
		// Set-up is the cold run that fills the store, on the checkout's
		// own filesystem, as users run it.
		store := filepath.Join(r.work, "store")
		args = append(args, "-cache-dir", store)
		for i := 0; i < setupRepeats; i++ {
			if err := os.RemoveAll(store); err != nil {
				return err
			}
			c, err := runCLI(r.rid, dir, nil, args...)
			if err != nil {
				return err
			}
			if msg := c.check(want); msg != "" {
				r.correct = false
				fmt.Printf("# FAILED store fill: %s (byte equality with batch-dense)\n", msg)
			}
			r.setup = append(r.setup, c.ms/1e3)
		}
	}

	ed := &editedDir{c: r.c, dir: dir, seed: r.seed}
	k := 0
	untracedEnd, tracedEnd := r.deadlines(time.Now())
	for more(untracedEnd, len(r.times)) {
		k++
		if err := ed.apply(k); err != nil {
			return err
		}
		r.attempted++
		c, err := runCLI(r.rid, dir, nil, args...)
		if err != nil {
			return err
		}
		if msg := c.check(want); msg != "" {
			r.note("iteration %d: %s", k, msg)
			continue
		}
		r.times = append(r.times, c.ms)
		r.rss = append(r.rss, c.rssMB)
	}
	if !r.trace {
		return nil
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	targs := []string{"traced-child", "-dir", dir, "-workers", strconv.Itoa(r.w.workers)}
	if r.w.store {
		targs = append(targs, "-cache-dir", filepath.Join(r.work, "store"))
	}
	for more(tracedEnd, len(r.samples)) {
		k++
		if err := ed.apply(k); err != nil {
			return err
		}
		r.attempted++
		c, err := runCLI(self, dir, []string{"GODEBUG=gctrace=1"}, targs...)
		if err != nil {
			return err
		}
		s, msg := c.traced(want)
		if msg != "" {
			r.note("traced iteration %d: %s", k, msg)
			continue
		}
		r.samples = append(r.samples, s)
	}
	r.layers = layerMetrics(r.samples, median(r.times))
	if r.w.store {
		r.layers["store.fill_ms"] = median(r.setup) * 1e3
	}
	return nil
}

// traced decodes a traced child's result, checks its report, and adds
// the parent's view: wall time and the child's GC cycles from gctrace.
func (c cliRun) traced(want string) (sample, string) {
	if c.code != 0 {
		return nil, fmt.Sprintf("exit %d: %s", c.code, firstLine(c.stderr))
	}
	var res childResult
	if err := json.Unmarshal([]byte(c.out), &res); err != nil {
		return nil, fmt.Sprintf("decode traced result: %v", err)
	}
	if res.Report != want {
		return nil, fmt.Sprintf("traced report differs from the reference (%d vs %d bytes)", len(res.Report), len(want))
	}
	res.Layers["trace.wall_ms"] = c.ms
	res.Layers["gc.cycles"] = float64(countGC(c.stderr))
	return res.Layers, ""
}

// countGC counts the gctrace lines, one per completed GC cycle.
func countGC(stderr string) int {
	n := 0
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(l, "gc ") {
			n++
		}
	}
	return n
}
