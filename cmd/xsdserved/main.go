// Command xsdserved is the long-running validation service: a schema
// registry served over HTTP, so consumers stop shelling out to xsdcheck
// per document and instead POST documents at a warm, concurrent,
// load-shedding validator — the paper's runtime validity guarantee as
// infrastructure.
//
// Usage:
//
//	xsdserved -schemas ./schemas [-addr 127.0.0.1:8080]
//
// Every *.xsd file in -schemas is served by base name:
//
//	curl -d @po.xml 'http://127.0.0.1:8080/v1/validate/po'
//	curl -d @po.xml 'http://127.0.0.1:8080/v1/validate/po?stream=1'  # no DOM; ?parallel=1 is an alias
//	curl -d @po.xml 'http://127.0.0.1:8080/v1/decode/po'          # validate + decode to canonical JSON
//	curl -d @po.xml 'http://127.0.0.1:8080/v1/decode/po?stream=1' # same, one pass over the wire bytes
//	curl -d @po.json 'http://127.0.0.1:8080/v1/encode/po'         # canonical JSON back to schema-valid XML
//	curl 'http://127.0.0.1:8080/v1/schemas'
//	curl 'http://127.0.0.1:8080/metrics'
//
// Schemas hot-reload on an mtime poll (-reload) and on SIGHUP; in-flight
// requests always finish on the schema version they started with.
// SIGINT/SIGTERM drain gracefully within -drain. Request logs are
// JSON-structured on stderr; the bound address is announced on stdout
// (useful with -addr :0).
//
// With -cluster-self and -cluster-peers a set of nodes becomes a
// schema-sharded fleet: each schema's traffic routes to its
// consistent-hash owner (-route proxy|redirect), /v1/cluster reports
// fleet state, and a gossip loop (-gossip) converges registry snapshots
// across nodes after any one of them reloads. SIGTERM first advertises
// draining for -drain-notice (503 on /healthz, flagged in gossip) so
// peers and load balancers steer away before the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux; served only via -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/compat"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// startPprof serves the net/http/pprof handlers on their own listener,
// refusing any address that does not resolve to a loopback interface.
func startPprof(logger *slog.Logger, addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad -pprof-addr: %w", err)
	}
	if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
		return fmt.Errorf("-pprof-addr %q is not a loopback address; profiling is local-only", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("pprof listening", "addr", ln.Addr().String())
	go func() {
		// DefaultServeMux carries the net/http/pprof registrations; the
		// service's own routes live on a private mux, so nothing else is
		// reachable here.
		srv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		if err := srv.Serve(ln); err != nil {
			logger.Warn("pprof server stopped", "err", err.Error())
		}
	}()
	return nil
}

// loadSOAPServices builds a soap.Service for every service in every
// *.wsdl file of dir. No handlers are registered: the endpoints validate
// envelopes and echo WSDLs; schema-valid requests to an operation answer
// the not-implemented Fault. Duplicate service names across files are a
// configuration error, not a silent override.
func loadSOAPServices(dir string) ([]*soap.Service, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var services []*soap.Service
	seen := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".wsdl") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		d, err := wsdl.ParseFile(path, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, ws := range d.Services {
			if prev, dup := seen[ws.Name]; dup {
				return nil, fmt.Errorf("%s: service %q already defined by %s", path, ws.Name, prev)
			}
			seen[ws.Name] = path
			svc, err := soap.NewService(d, ws.Name)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			services = append(services, svc)
		}
	}
	return services, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	dir := flag.String("schemas", "", "directory of *.xsd schema files (required)")
	reloadEvery := flag.Duration("reload", 10*time.Second, "schema-directory poll interval (0 disables polling; SIGHUP still reloads)")
	maxBody := flag.Int64("max-body", 16<<20, "request body cap in bytes")
	maxConc := flag.Int("max-concurrent", 0, "concurrent validation limit (0 = 4×GOMAXPROCS); excess load is shed with 429")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request validation deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	gate := flag.String("compat-gate", "none", "reject reloaded schema versions below this compatibility level vs the serving version (none|backward|forward|full)")
	wsdls := flag.String("wsdls", "", "directory of *.wsdl service descriptions to mount at /v1/soap/{service} (envelope validation and WSDL echo; operations answer an unimplemented Fault)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty disables, non-loopback refused)")
	clusterSelf := flag.String("cluster-self", "", "this node's host:port as it appears in -cluster-peers (enables the cluster tier)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated host:port list of the full fleet, self included; every node must use the same list")
	routeMode := flag.String("route", "proxy", "what to do with requests for schemas another node owns (proxy|redirect)")
	gossipEvery := flag.Duration("gossip", time.Second, "peer status poll interval for the cluster gossip loop")
	drainNotice := flag.Duration("drain-notice", 3*time.Second, "after SIGTERM, advertise draining for this long (via /healthz and gossip) before closing the listener, so peers stop routing here first; 0 skips straight to drain")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: xsdserved -schemas dir [-addr host:port]")
		os.Exit(2)
	}
	gateLevel, err := compat.ParseLevel(*gate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	metrics := &obs.Metrics{}
	reg := registry.New(*dir, nil)
	reg.Gate = gateLevel
	reg.OnCompat = func(name string, rep *compat.Report, gated bool) {
		metrics.Compat.Observe(rep.Level.String(), gated)
		attrs := []any{"schema", name, "level", rep.Level.String(), "gated", gated}
		if len(rep.BackwardBreaks) > 0 {
			attrs = append(attrs, "backward_breaks", rep.BackwardBreaks)
		}
		if len(rep.ForwardBreaks) > 0 {
			attrs = append(attrs, "forward_breaks", rep.ForwardBreaks)
		}
		if gated {
			logger.Warn("schema version rejected by compatibility gate", attrs...)
		} else {
			logger.Info("schema compatibility", attrs...)
		}
	}
	reg.OnReload = func(gen int64, changed int, err error) {
		metrics.Reloads.Inc()
		switch {
		case err != nil:
			metrics.ReloadErrors.Inc()
			logger.Warn("reload", "generation", gen, "changed", changed, "err", err.Error())
		case changed > 0:
			logger.Info("reload", "generation", gen, "changed", changed)
		}
	}
	if _, err := reg.Reload(); err != nil && len(reg.List()) == 0 {
		// Per-file errors are tolerated (served as load_errors), but a
		// start with nothing loadable at all is a misconfiguration.
		logger.Error("no schemas loadable at startup", "dir", *dir, "err", err.Error())
		os.Exit(1)
	}
	for _, e := range reg.List() {
		logger.Info("schema loaded", "name", e.Name, "version", e.Version, "path", e.Path)
	}

	srv := server.New(server.Config{
		Registry:       reg,
		Metrics:        metrics,
		Logger:         logger,
		MaxBodyBytes:   *maxBody,
		MaxConcurrent:  *maxConc,
		RequestTimeout: *timeout,
	})

	if *wsdls != "" {
		services, err := loadSOAPServices(*wsdls)
		if err != nil {
			logger.Error("loading WSDLs", "dir", *wsdls, "err", err.Error())
			os.Exit(1)
		}
		if len(services) == 0 {
			logger.Error("no services loadable", "dir", *wsdls)
			os.Exit(1)
		}
		for _, svc := range services {
			srv.RegisterSOAP(svc)
			logger.Info("SOAP service mounted", "service", svc.Name(),
				"operations", svc.Operations(), "path", "/v1/soap/"+svc.Name())
		}
	}

	if *pprofAddr != "" {
		// Profiling is opt-in and loopback-only: the pprof mux exposes heap
		// contents and symbol tables, so it never rides on the service
		// listener and never binds a routable interface.
		if err := startPprof(logger, *pprofAddr); err != nil {
			logger.Error("pprof", "addr", *pprofAddr, "err", err.Error())
			os.Exit(1)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err.Error())
		os.Exit(1)
	}
	// Announced on stdout so wrappers (and the integration test) can
	// discover an ephemeral port.
	fmt.Printf("xsdserved listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String(), "schemas", len(reg.List()))

	// SIGHUP kicks an immediate reload through the registry's watcher;
	// the non-blocking send coalesces a signal burst into one reload.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	kick := make(chan struct{}, 1)
	go func() {
		for range hup {
			select {
			case kick <- struct{}{}:
			default:
			}
		}
	}()
	go reg.Watch(ctx, *reloadEvery, kick)

	// With -cluster-self/-cluster-peers the serving handler is wrapped
	// in the ring-routing tier and the gossip loop starts: requests for
	// schemas another node owns are proxied (or 307ed) there, and peers'
	// registry snapshots are pulled into convergence. A pull reload
	// rides the same kick channel as SIGHUP, so gossip-triggered and
	// operator-triggered reloads coalesce instead of stacking.
	handler := srv.Handler()
	var clusterNode *cluster.Node
	if *clusterSelf != "" || *clusterPeers != "" {
		mode, err := cluster.ParseMode(*routeMode)
		if err != nil {
			logger.Error("cluster", "err", err.Error())
			os.Exit(2)
		}
		clusterNode, err = cluster.New(cluster.Config{
			Self:           *clusterSelf,
			Peers:          strings.Split(*clusterPeers, ","),
			Registry:       reg,
			Metrics:        metrics,
			Logger:         logger,
			Mode:           mode,
			GossipInterval: *gossipEvery,
			PullReload: func() {
				select {
				case kick <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			logger.Error("cluster", "err", err.Error())
			os.Exit(2)
		}
		handler = clusterNode.Wrap(handler)
		go clusterNode.Gossip(ctx)
		logger.Info("cluster enabled", "self", *clusterSelf,
			"peers", clusterNode.Ring().Peers(), "mode", mode.String())
	}

	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		logger.Error("serve", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}
	// Drain in two phases. First ANNOUNCE: /healthz flips to 503
	// Draining and gossip carries the flag, so load balancers and peers
	// steer new work away while this listener still answers everything
	// in flight or newly arrived. Then DRAIN: close the listener and
	// wait out stragglers. The notice phase is what makes removing one
	// node from a fleet lossless — peers stop proxying here before the
	// socket stops accepting.
	srv.SetDraining(true)
	if clusterNode != nil {
		clusterNode.SetDraining(true)
	}
	if *drainNotice > 0 {
		logger.Info("drain notice", "notice", drainNotice.String())
		select {
		case <-time.After(*drainNotice):
		case err := <-serveErr:
			logger.Error("serve", "err", err.Error())
			os.Exit(1)
		}
	}
	logger.Info("shutting down", "drain", drain.String())
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		logger.Warn("drain incomplete", "err", err.Error())
		os.Exit(1)
	}
	logger.Info("bye")
}
