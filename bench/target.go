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

	"repro/bench/workload"
)

// target is a booted server: its base URL, the process whose CPU time
// and peak RSS are the server's, and how to stop it.
type target struct {
	url  string
	pid  int
	stop func() error
}

// bootFunc boots a server over a schema directory.
type bootFunc func(ctx context.Context, dir string) (*target, error)

// execBoot boots the xsdserved binary bin as a child process. It returns
// once the server announced its address; ready() confirms it serves.
func execBoot(bin string) bootFunc {
	return func(ctx context.Context, dir string) (*target, error) {
		r, w, err := os.Pipe()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, "-schemas", dir, "-addr", "127.0.0.1:0", "-reload", "0",
			"-drain-notice", "0", "-drain", "2s")
		cmd.Stdout = w
		// Request logs go to the null device: the server still formats and
		// writes them, as it would in service, but nobody reads them.
		cmd.Stderr = nil
		// The child dies with the benchmark if the benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		w.Close()
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		drained := make(chan struct{})
		// Receives the announced address, or "" if stdout closed first.
		addr := make(chan string, 1)
		go func() {
			defer close(drained)
			defer r.Close()
			sc := bufio.NewScanner(r)
			announced := ""
			for announced == "" && sc.Scan() {
				announced, _ = strings.CutPrefix(sc.Text(), "xsdserved listening on ")
			}
			addr <- announced
			io.Copy(io.Discard, r) //nolint:errcheck // drains until the child exits
		}()
		t := &target{pid: cmd.Process.Pid}
		t.stop = func() error {
			cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // a dead child is what we want
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			var err error
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				cmd.Process.Kill() //nolint:errcheck // already exiting or gone
				err = fmt.Errorf("xsdserved ignored SIGTERM for 5s: %v", <-done)
			}
			<-drained
			return err
		}
		select {
		case a := <-addr:
			if a != "" {
				t.url = "http://" + a
				return t, nil
			}
		case <-time.After(60 * time.Second):
		case <-ctx.Done():
		}
		t.stop() //nolint:errcheck // reporting the boot failure instead
		return nil, fmt.Errorf("xsdserved did not announce its address over %s", dir)
	}
}

// ready checks that the server answers /healthz with 200 and lists every
// schema at /v1/schemas.
func ready(c *http.Client, url string) error {
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz answered %d", resp.StatusCode)
	}
	resp, err = c.Get(url + "/v1/schemas")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var list struct {
		Schemas    []struct{ Name string } `json:"schemas"`
		LoadErrors map[string]string       `json:"load_errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return fmt.Errorf("/v1/schemas: %w", err)
	}
	if len(list.Schemas) != workload.Entries || len(list.LoadErrors) > 0 {
		return fmt.Errorf("/v1/schemas lists %d schemas (want %d), load errors %v",
			len(list.Schemas), workload.Entries, list.LoadErrors)
	}
	return nil
}

// counters are the /metrics totals over every series: what the server
// believes it answered.
type counters struct {
	Requests, Invalid, Errors, Shed int64
}

func (c counters) minus(o counters) counters {
	return counters{c.Requests - o.Requests, c.Invalid - o.Invalid, c.Errors - o.Errors, c.Shed - o.Shed}
}

func scrape(c *http.Client, url string) (counters, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var snap struct {
		Series []struct {
			Requests, Invalid, Errors, Shed int64
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return counters{}, fmt.Errorf("/metrics: %w", err)
	}
	var sum counters
	for _, s := range snap.Series {
		sum.Requests += s.Requests
		sum.Invalid += s.Invalid
		sum.Errors += s.Errors
		sum.Shed += s.Shed
	}
	return sum, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 on every architecture the benchmark runs on.
const clockTicks = 100

// cpuSeconds is the user plus system CPU time of pid.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times %q %q", pid, f[11], f[12])
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB is VmHWM of pid, the peak resident set, in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", v)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
