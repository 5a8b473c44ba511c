package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/bench/workload"
	"repro/internal/registry"
	"repro/internal/server"
)

// inProcessBoot serves reg from this process on a loopback listener, so
// the smoke test needs no xsdserved binary. CPU time and peak RSS are
// then this process's own.
func inProcessBoot(reg *registry.Registry) bootFunc {
	return func(ctx context.Context, _ string) (*target, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: server.New(server.Config{Registry: reg}).Handler()}
		served := make(chan error, 1)
		go func() { served <- hs.Serve(ln) }()
		return &target{url: "http://" + ln.Addr().String(), pid: os.Getpid(), stop: func() error {
			err := hs.Shutdown(context.Background())
			<-served
			return err
		}}, nil
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runOnce runs the benchmark in process and returns its exit code, its
// metric lines by name, and its final JSON line.
func runOnce(t *testing.T, cfg config) (int, map[string]string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(context.Background(), cfg, &out, &errOut)
	lines := map[string]string{}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 && strings.HasPrefix(f[3], "n=") {
			lines[f[0]] = f[2]
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line is not the result JSON: %q (stderr %s)", last, errOut.String())
	}
	if code != 0 && !cfg.plant {
		t.Logf("stderr: %s", errOut.String())
	}
	return code, lines, res
}

// TestSmoke runs every workload for a second at a low rate against an
// in-process server, untraced and traced, and a run with a planted wrong
// oracle entry.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	if err := workload.WriteSchemas(filepath.Join(dir, "schemas")); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(filepath.Join(dir, "schemas"), nil)
	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	want := readDeclared(t)
	base := config{seed: 1, seconds: 1, rate: 20, boot: inProcessBoot(reg)}

	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.workload, cfg.workdir = name, t.TempDir()
			code, lines, res := runOnce(t, cfg)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("exit %d, result %+v", code, res)
			}
			for _, m := range want.EndToEnd {
				if lines[m.Name] != m.Unit {
					t.Errorf("metric %s printed with unit %q, want %q", m.Name, lines[m.Name], m.Unit)
				}
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("metric %s missing from the result JSON", m.Name)
				}
			}
			if len(res.Metrics) != len(want.EndToEnd) {
				t.Errorf("result carries %d metrics, BENCHMARK.json declares %d end-to-end", len(res.Metrics), len(want.EndToEnd))
			}
		})
	}

	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		cfg := base
		cfg.workload, cfg.workdir, cfg.trace = "small-tenants", t.TempDir(), true
		cfg.spans = filepath.Join(cfg.workdir, "spans.jsonl")
		code, lines, res := runOnce(t, cfg)
		if code != 0 || !res.Correct {
			t.Fatalf("exit %d, result %+v", code, res)
		}
		for _, m := range want.PerLayer {
			if lines[m.Name] != m.Unit {
				t.Errorf("per-layer metric %s printed with unit %q, want %q", m.Name, lines[m.Name], m.Unit)
			}
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("per-layer metric %s missing from the result JSON", m.Name)
			}
		}
		data, err := os.ReadFile(cfg.spans)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var s map[string]any
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatalf("span line %q: %v", line, err)
			}
			for _, k := range []string{"id", "parent", "name", "input", "start_ns", "end_ns"} {
				if _, ok := s[k]; !ok {
					t.Fatalf("span %q lacks %s", line, k)
				}
			}
			names[s["name"].(string)] = true
		}
		for _, n := range []string{"request", "http", "dom.parse", "validator.stream", "server.handler", "registry.cold"} {
			if !names[n] {
				t.Errorf("no %s span written", n)
			}
		}
	})

	t.Run("planted", func(t *testing.T) {
		t.Parallel()
		cfg := base
		cfg.workload, cfg.workdir, cfg.seconds, cfg.plant = "small-tenants", t.TempDir(), 0.5, true
		start := time.Now()
		code, lines, res := runOnce(t, cfg)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Fatalf("planted wrong verdict not caught: exit %d, result %+v", code, res)
		}
		if lines["fail_frac"] != "ratio" {
			t.Errorf("fail_frac not printed")
		}
		t.Logf("planted run failed %d of %d in %v", res.Failed, res.Attempted, time.Since(start))
	})
}
