// Command bench is the repository's benchmark. It boots the real
// xsdserved over a generated schema directory, offers one workload's
// traffic in an open loop at the workload's fixed rate, checks every
// answer against an oracle built from how each input was generated,
// reconciles the server's /metrics counters with what it sent, and
// prints the end-to-end metrics. With -trace 1 it
// instead records client spans over the open loop and prices the
// workload's documents layer by layer in process (package ladder).
//
// Run it from the repository root through run.sh, which first builds the
// benchmark and xsdserved into .bench_build:
//
//	bash bench/run.sh -workload large-po -seed 1 -seconds 20 -trace 0
//
// Every metric prints as "name value unit n=<samples>"; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 0 only when every answer was
// correct. The benchmark reads /proc and is Linux-only.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bench/ladder"
	"repro/bench/loadgen"
	"repro/bench/workload"
)

// conns is the number of senders, each with one keep-alive connection.
// Load comes from one process with no more connections than the cores of
// the reference host, so the generator cannot outnumber the server.
const conns = 2

// setupBoots is how many cold boots set-up time is the median of.
const setupBoots = 11

// windows is how many equal windows the measured open loop is cut into.
// The host the benchmark runs on is shared, and its speed dips for
// seconds at a time; leaving out the fastest and the slowest window, or
// taking the median over windows, keeps one such dip from moving a run's
// result.
const windows = 8

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span file of a traced run
	out      string // optional copy of the result, with the host stamp
	workdir  string // scratch space; schema directories live here
	boot     bootFunc

	// rate overrides the workload's frozen rate (tests run slowly).
	rate float64
	// plant flips the expected verdict of the first request, so a test
	// can see a wrong answer counted and failing the run.
	plant bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var server string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workload.Names(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs and the arrival schedule are drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured open loop of one run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics instead")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default <workdir>/spans-<workload>-<seed>.jsonl)")
	fs.StringVar(&cfg.out, "o", "", "also write the result, with the host stamp, to this file")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for schema directories and spans")
	fs.StringVar(&server, "server", ".bench_build/xsdserved", "xsdserved binary to boot")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workload.Workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workload.Names(), ", "))
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace takes 0 or 1, not %d", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive")
	}
	cfg.trace = trace == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	if _, err := os.Stat(server); err != nil {
		return cfg, fmt.Errorf("xsdserved binary: %w (build it with bench/run.sh)", err)
	}
	cfg.boot = execBoot(server)
	return cfg, nil
}

func main() {
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, cfg, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metric is one printed measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples it summarises
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and returns the exit code.
func run(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	w := workload.Workloads[cfg.workload]
	rate := w.Rate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	warm, open := seconds/25, seconds
	if cfg.trace {
		// The untraced and traced open loops get 35% each; the ladder
		// gets the rest.
		open = seconds * 35 / 100
	}

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	schemas := filepath.Join(dir, "schemas")
	if err := workload.WriteSchemas(schemas); err != nil {
		fmt.Fprintln(stderr, "bench: writing schemas:", err)
		return 1
	}
	pool := w.Pool(cfg.seed, int(math.Ceil(rate*open.Seconds())))
	if cfg.plant {
		for _, d := range pool[0].Docs {
			d.Valid = !d.Valid
		}
	}

	boots := setupBoots
	if cfg.trace {
		boots = 1
	}
	tgt, setup, err := bootServer(ctx, cfg.boot, schemas, boots)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer func() {
		if err := tgt.stop(); err != nil {
			fmt.Fprintln(stderr, "bench: stopping xsdserved:", err)
		}
	}()

	d := newTraffic(tgt.url, pool)
	s := &session{d: d, ctx: ctx, rate: rate, seed: cfg.seed, stdout: stdout, stderr: stderr}
	s.open("warm-up", warm, nil)

	var metrics []metric
	if cfg.trace {
		metrics = s.traced(cfg, open, seconds-2*open, schemas, w)
	} else {
		metrics = s.measured(tgt, open)
		metrics = append([]metric{{"setup_s", median(setup), "s", len(setup)}}, metrics...)
	}

	res := result{Correct: len(s.faults) == 0 && s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: map[string]metricValue{}}
	host := hostStamp()
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostJSON)
	fmt.Fprintf(stdout, "workload %s seed %d rate %g/s seconds %g trace %v\n", cfg.workload, cfg.seed, rate, cfg.seconds, cfg.trace)
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%s %.6g %s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	fmt.Fprintf(stdout, "fail_frac %.6g ratio n=%d\n", float64(s.failed)/float64(max(s.attempted, 1)), s.attempted)
	for _, f := range s.faults {
		fmt.Fprintln(stderr, "bench:", f)
	}
	d.report(stderr)
	if cfg.out != "" {
		full, _ := json.MarshalIndent(map[string]any{
			"host": host, "workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
			"trace": cfg.trace, "rate": rate, "result": res, "samples": samples(metrics),
		}, "", "  ")
		if err := os.WriteFile(cfg.out, append(full, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench: writing -o:", err)
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bootServer boots the server n times, one after another, and keeps the
// last one serving. Each boot is timed from exec until /healthz answers
// 200 and /v1/schemas lists every schema.
func bootServer(ctx context.Context, boot bootFunc, schemas string, n int) (*target, []float64, error) {
	var times []float64
	for i := 1; ; i++ {
		start := time.Now()
		t, err := boot(ctx, schemas)
		if err != nil {
			return nil, nil, fmt.Errorf("boot %d: %w", i, err)
		}
		c := &http.Client{Timeout: 10 * time.Second}
		err = ready(c, t.url)
		times = append(times, time.Since(start).Seconds())
		c.CloseIdleConnections()
		if err != nil {
			t.stop() //nolint:errcheck // reporting the boot failure instead
			return nil, nil, fmt.Errorf("boot %d: %w", i, err)
		}
		if i >= n {
			return t, times, nil
		}
		if err := t.stop(); err != nil {
			return nil, nil, fmt.Errorf("stopping boot %d: %w", i, err)
		}
	}
}

// measured runs the open loop and derives the end-to-end metrics other
// than set-up time. The phase is cut into windows by due time. Latency
// percentiles pool the calls of every window but the one with the lowest
// and the one with the highest median latency; CPU per document is the
// median over the windows. The 99th percentile is printed but is not an
// end-to-end metric: on the shared reference host its run-to-run spread
// exceeds any bound the benchmark may set (README.md).
func (s *session) measured(tgt *target, open time.Duration) []metric {
	var cpu []float64
	o := s.phase("open loop", func() loadgen.Stats {
		readings := sampleCPU(tgt.pid, time.Now(), open)
		st := loadgen.Open(s.ctx, s.rate, open, s.arrivalSeed(), conns, s.d.do)
		cpu = <-readings
		return st
	})
	rss, err := peakRSSMB(tgt.pid)
	if err != nil {
		s.fault("%v", err)
	}
	s.gate(o)

	ws := o.Samples.Windows(windows, open)
	p50 := make([]float64, windows)
	var cpuPerDoc []float64
	for i, w := range ws {
		p50[i] = finite(loadgen.Quantile(w.LatenciesMs(), 0.5), math.Inf(1))
		if docs := w.Docs(); docs > 0 && !math.IsNaN(cpu[i]) && !math.IsNaN(cpu[i+1]) {
			cpuPerDoc = append(cpuPerDoc, (cpu[i+1]-cpu[i])*1e3/float64(docs))
		}
	}
	if len(cpuPerDoc) == 0 {
		s.fault("no CPU reading covers an open-loop window")
		cpuPerDoc = []float64{math.NaN()}
	}
	order := make([]int, windows)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p50[order[a]] < p50[order[b]] })
	var kept loadgen.Samples
	for _, i := range order[1 : windows-1] {
		kept = append(kept, ws[i]...)
	}
	lat := kept.LatenciesMs()
	tail := float64(o.Elapsed.Milliseconds())
	fmt.Fprintf(s.stdout, "tail p99_ms %.6g ms n=%d\n", finite(loadgen.Quantile(lat, 0.99), tail), len(lat))
	return []metric{
		{"p50_ms", finite(loadgen.Quantile(lat, 0.50), tail), "ms", len(lat)},
		{"cpu_ms_per_doc", median(cpuPerDoc), "ms", o.Samples.Docs()},
		{"peak_rss_mb", rss, "MB", 1},
	}
}

// sampleCPU reads pid's CPU time at the boundaries of the windows of
// [start, start+span) and delivers the windows+1 readings (NaN where a
// read failed) once the last is taken.
func sampleCPU(pid int, start time.Time, span time.Duration) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		readings := make([]float64, windows+1)
		for i := range readings {
			time.Sleep(time.Until(start.Add(span * time.Duration(i) / windows)))
			v, err := cpuSeconds(pid)
			if err != nil {
				v = math.NaN()
			}
			readings[i] = v
		}
		out <- readings
	}()
	return out
}

// session runs the phases of one run against one server, keeping the
// tallies every phase adds to.
type session struct {
	d         *traffic
	ctx       context.Context
	stdout    io.Writer
	stderr    io.Writer
	rate      float64
	seed      int64
	phases    int
	attempted int
	failed    int
	faults    []string
}

func (s *session) fault(format string, args ...any) {
	s.faults = append(s.faults, fmt.Sprintf(format, args...))
}

// phase runs one load phase and reconciles the server's /metrics
// counters with the checked responses.
func (s *session) phase(name string, load func() loadgen.Stats) loadgen.Stats {
	before, err := scrape(s.d.clients[0], s.d.url)
	if err != nil {
		s.fault("%s: %v", name, err)
	}
	s.d.tally = counters{}
	st := load()
	after, err := scrape(s.d.clients[0], s.d.url)
	if err != nil {
		s.fault("%s: %v", name, err)
	}
	if got := after.minus(before); got != s.d.tally {
		s.fault("%s: /metrics moved by %+v, the checked responses add up to %+v", name, got, s.d.tally)
	}
	s.d.offset += len(st.Samples)
	s.attempted += len(st.Samples)
	s.failed += st.Samples.Failed()
	s.phases++
	return st
}

// arrivalSeed seeds the arrival schedule of the next phase: each phase of
// a run gets its own schedule, and the same seed gives the same ones.
func (s *session) arrivalSeed() int64 { return s.seed*100 + int64(s.phases) }

func (s *session) open(name string, d time.Duration, tr *ladder.Trace) loadgen.Stats {
	s.d.trace = tr
	defer func() { s.d.trace = nil }()
	seed := s.arrivalSeed()
	return s.phase(name, func() loadgen.Stats { return loadgen.Open(s.ctx, s.rate, d, seed, conns, s.d.do) })
}

// gate warns when the generator itself ran late: a lateness p99 above
// 1 ms means the schedule, not the server, shaped the latencies.
func (s *session) gate(o loadgen.Stats) {
	if late := loadgen.Quantile(o.Samples.LateMs(), 0.99); late > 1 {
		fmt.Fprintf(s.stderr, "bench: warning: generator lateness p99 %.3f ms exceeds 1 ms; treat this run's latencies with suspicion\n", late)
	}
}

// traced is the -trace 1 run: an untraced and a traced open loop of equal
// length, then the ladder over a sample of the workload's documents.
func (s *session) traced(cfg config, open, budget time.Duration, schemas string, w *workload.Workload) []metric {
	tr := ladder.NewTrace()
	u := s.open("open loop", open, nil)
	t := s.open("traced open loop", open, tr)
	s.gate(u)
	up50 := loadgen.Quantile(u.Samples.LatenciesMs(), 0.5)
	tp50 := loadgen.Quantile(t.Samples.LatenciesMs(), 0.5)
	fmt.Fprintf(s.stdout, "tracing overhead %.4f (traced p50 %.4g ms / untraced p50 %.4g ms - 1)\n", tp50/up50-1, tp50, up50)
	s.d.mu.Lock()
	transport := append([]float64(nil), s.d.transport...)
	s.d.mu.Unlock()
	lateness, wait, lat := u.Samples.LateMs(), u.Samples.ConnWaitMs(), u.Samples.LatenciesMs()
	ms := []metric{
		{"loadgen.p99_ms", finite(loadgen.Quantile(lat, 0.99), float64(u.Elapsed.Milliseconds())), "ms", len(lat)},
		{"loadgen.late_p99_ms", loadgen.Quantile(lateness, 0.99), "ms", len(lateness)},
		{"loadgen.conn_wait_p99_ms", loadgen.Quantile(wait, 0.99), "ms", len(wait)},
		{"loadgen.backlog_end", float64(u.BacklogEnd), "count", 1},
		{"loadgen.trace_overhead", tp50/up50 - 1, "ratio", len(t.Samples)},
		{"transport.p50_ms", loadgen.Quantile(transport, 0.5), "ms", len(transport)},
		{"transport.p99_ms", loadgen.Quantile(transport, 0.99), "ms", len(transport)},
	}
	inputs := ladderInputs(w, cfg.seed, cfg.seconds)
	layers, err := ladder.Run(schemas, inputs, budget, tr)
	if err != nil {
		s.fault("%v", err)
		layers = map[string]float64{}
	}
	for _, l := range ladderMetrics {
		ms = append(ms, metric{l.name, layers[l.name], l.unit, len(inputs)})
	}
	if err := tr.WriteFile(cfg.spans); err != nil {
		s.fault("writing spans: %v", err)
	} else {
		fmt.Fprintf(s.stdout, "spans %d written to %s\n", tr.Len(), cfg.spans)
	}
	return ms
}

// ladderMetrics are the per-layer metrics ladder.Run reports, in print
// order, with their units.
var ladderMetrics = []struct{ name, unit string }{
	{"server.self_us_per_req", "us"}, {"server.bytes_per_req", "B"}, {"server.allocs_per_req", "count"},
	{"registry.cold_ms", "ms"}, {"registry.cold_bytes", "B"},
	{"xmlparser.mb_s.markup", "MB/s"}, {"xmlparser.mb_s.text", "MB/s"}, {"xmlparser.bytes_per_doc", "B"},
	{"dom.self_us_per_doc", "us"}, {"dom.bytes_per_doc", "B"}, {"dom.allocs_per_doc", "count"},
	{"validator.dom.us_per_doc", "us"}, {"validator.dom.bytes_per_doc", "B"},
	{"validator.dom.us_per_klevel", "us"},
	{"validator.stream.self_us_per_doc", "us"}, {"validator.stream.bytes_per_doc", "B"},
	{"validator.stream_dom_bytes_ratio", "ratio"},
	{"bind.decode.self_us_per_doc", "us"}, {"bind.decode_stream.self_us_per_doc", "us"},
	{"bind.json.us_per_doc", "us"}, {"bind.json.bytes_per_doc", "B"},
	{"bind.from_json.us_per_doc", "us"}, {"bind.from_json.bytes_per_doc", "B"},
	{"bind.marshal.us_per_doc", "us"}, {"bind.marshal.bytes_per_doc", "B"},
}

// ladderInputs samples the workload's valid single-document requests
// from a pool drawn from another seed than the served one, both styles
// alike, up to a byte budget per style that scales with the run length.
func ladderInputs(w *workload.Workload, seed int64, seconds float64) []ladder.Input {
	scale := math.Min(1, seconds/25)
	maxBytes, maxDocs := int(512<<10*scale), max(2, int(64*scale))
	var inputs []ladder.Input
	var size, count [2]int
	for _, q := range w.Pool(seed+7919, w.MaxPool) {
		d := q.Docs[0]
		if q.Op == workload.OpBatch || !d.Valid || d.Hostile != "" {
			continue
		}
		k := 0
		if d.Text {
			k = 1
		}
		if size[k] >= maxBytes || count[k] >= maxDocs {
			continue
		}
		size[k] += len(d.XML)
		count[k]++
		inputs = append(inputs, ladder.Input{ID: q.ID, Schema: q.Schema, Op: q.Op, XML: d.XML, Body: q.Body, Text: d.Text})
	}
	return inputs
}

// traffic sends pool requests on conns keep-alive connections and checks
// every answer against the oracle as it arrives. The call's latency ends
// when the answer is read, before it is checked.
type traffic struct {
	url     string
	pool    []*workload.Request
	clients []*http.Client
	// offset advances by each phase's length, so phases continue through
	// the pool instead of replaying its start.
	offset int
	trace  *ladder.Trace // non-nil while a traced phase runs

	mu        sync.Mutex
	tally     counters // the /metrics movement the checked responses imply
	transport []float64
	errs      []string
	failures  int
}

func newTraffic(url string, pool []*workload.Request) *traffic {
	d := &traffic{url: url, pool: pool}
	for i := 0; i < conns; i++ {
		d.clients = append(d.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return d
}

func (d *traffic) do(c loadgen.Call) loadgen.Done {
	q := d.pool[(d.offset+c.Seq)%len(d.pool)]
	req, err := http.NewRequest(http.MethodPost, d.url+q.Op.Path(q.Schema), bytes.NewReader(q.Body))
	start := time.Now()
	var status int
	var body []byte
	if err == nil {
		req.Header.Set("Content-Type", q.ContentType())
		var resp *http.Response
		if resp, err = d.clients[c.Conn].Do(req); err == nil {
			status = resp.StatusCode
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	end := time.Now()
	if tr := d.trace; tr != nil {
		root := tr.NewID()
		tr.Add(root, 0, "request", q.ID, c.Due, end)
		tr.Add(tr.NewID(), root, "loadgen.wait", q.ID, c.Due, start)
		tr.Add(tr.NewID(), root, "http", q.ID, start, end)
	}
	var out workload.Outcome
	if err == nil {
		out, err = workload.Check(q, status, body)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.failures++
		if len(d.errs) < 5 {
			d.errs = append(d.errs, fmt.Sprintf("request %d (%s %s): %v", q.ID, q.Op, q.Schema, err))
		}
		return loadgen.Done{End: end}
	}
	if out.Refused {
		d.tally.Errors++
	} else {
		d.tally.Requests++
		d.tally.Invalid += int64(out.Invalid)
	}
	if d.trace != nil && out.ElapsedNs > 0 {
		d.transport = append(d.transport, float64(end.Sub(start)-time.Duration(out.ElapsedNs))/1e6)
	}
	return loadgen.Done{End: end, Docs: out.Docs, OK: true}
}

// report prints the first failures, if any.
func (d *traffic) report(stderr io.Writer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.errs {
		fmt.Fprintln(stderr, "bench: failed:", e)
	}
	if d.failures > len(d.errs) {
		fmt.Fprintf(stderr, "bench: and %d more failures\n", d.failures-len(d.errs))
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// finite stands in for a percentile that fell on a failed request
// (+Inf): JSON has no infinity, and such a run is incorrect anyway.
func finite(v, instead float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return instead
	}
	return v
}

func samples(ms []metric) map[string]int {
	out := map[string]int{}
	for _, m := range ms {
		out[m.Name] = m.N
	}
	return out
}

// hostStamp identifies the machine and build a result was measured on.
func hostStamp() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model": cpu, "num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": commit,
	}
}
