//go:build unix

package repro

// Integration test for the cluster tier: boots a real 3-node xsdserved
// fleet on loopback ports and proves the three claims the tier makes.
// Any node answers any schema correctly (ring routing). A SIGHUP reload
// on ONE node converges the whole fleet's registry snapshots (gossip
// pull). And draining one node out of the fleet under live mixed load
// loses zero requests (drain notice + proxy failover).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/schemas"
)

// clusterStatus mirrors cluster.Status (decoded from /v1/cluster).
type clusterStatus struct {
	Self        string   `json:"self"`
	Mode        string   `json:"mode"`
	Draining    bool     `json:"draining"`
	Generation  int64    `json:"generation"`
	Fingerprint string   `json:"fingerprint"`
	Schemas     int      `json:"schemas"`
	Owned       []string `json:"owned"`
	Peers       []struct {
		Addr        string `json:"addr"`
		Alive       bool   `json:"alive"`
		Fingerprint string `json:"fingerprint"`
	} `json:"peers"`
	Divergence int64 `json:"divergence"`
}

// reservePorts grabs n distinct loopback ports by listening and
// closing. The tiny reuse race is acceptable in a test that needs
// concrete addresses BEFORE any process starts (the peer list must be
// complete when the first node boots).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

type fleetProc struct {
	addr   string
	cmd    *exec.Cmd
	stderr *bytes.Buffer
}

func (p *fleetProc) url() string { return "http://" + p.addr }

func TestClusterFleet(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	if testing.Short() {
		t.Skip("integration test builds and boots binaries")
	}

	served := filepath.Join(t.TempDir(), "xsdserved")
	if out, err := exec.Command("go", "build", "-o", served, "./cmd/xsdserved").CombinedOutput(); err != nil {
		t.Fatalf("building xsdserved: %v\n%s", err, out)
	}

	schemaDir := t.TempDir()
	poPath := filepath.Join(schemaDir, "po.xsd")
	base := time.Now().Add(-time.Hour)
	if err := os.WriteFile(poPath, []byte(schemas.PurchaseOrderXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(poPath, base, base); err != nil {
		t.Fatal(err)
	}

	addrs := reservePorts(t, 3)
	peers := strings.Join(addrs, ",")
	fleet := make([]*fleetProc, len(addrs))
	for i, addr := range addrs {
		// -reload 0: no mtime poll, so every reload in this test is
		// attributable to SIGHUP or a gossip pull. -gossip 150ms keeps
		// convergence (and drain awareness) well inside the timeouts.
		cmd := exec.Command(served,
			"-addr", addr,
			"-schemas", schemaDir,
			"-reload", "0",
			"-cluster-self", addr,
			"-cluster-peers", peers,
			"-gossip", "150ms",
			"-drain-notice", "1500ms",
			"-drain", "10s",
			"-timeout", "10s")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		p := &fleetProc{addr: addr, cmd: cmd, stderr: &stderr}
		fleet[i] = p
		t.Cleanup(func() {
			if p.cmd.ProcessState == nil {
				p.cmd.Process.Kill() //nolint:errcheck
				p.cmd.Wait()         //nolint:errcheck
			}
			if t.Failed() {
				t.Logf("node %s stderr:\n%s", p.addr, p.stderr.String())
			}
		})
		ready := make(chan struct{})
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "xsdserved listening on ") {
					close(ready)
					return
				}
			}
		}()
		select {
		case <-ready:
		case <-time.After(20 * time.Second):
			t.Fatalf("node %s never announced; stderr:\n%s", addr, stderr.String())
		}
	}

	getStatus := func(p *fleetProc) clusterStatus {
		t.Helper()
		var st clusterStatus
		if code := getJSON(t, p.url()+"/v1/cluster", &st); code != http.StatusOK {
			t.Fatalf("GET %s/v1/cluster = %d", p.addr, code)
		}
		return st
	}

	// --- Fleet status first: a node booting ahead of its peers marks
	// them dead on its first gossip sweep (and rightly serves locally
	// meanwhile), so routing assertions wait until every node sees the
	// whole fleet alive and converged at generation 1.
	waitForFleet(t, "initial convergence", fleet, func() bool {
		for _, p := range fleet {
			st := getStatus(p)
			if st.Self != p.addr || st.Schemas != 1 || len(st.Peers) != 2 {
				t.Fatalf("node %s status malformed: %+v", p.addr, st)
			}
			if st.Generation != 1 || st.Divergence != 0 {
				return false
			}
			for _, peer := range st.Peers {
				if !peer.Alive {
					return false
				}
			}
		}
		return true
	})

	// --- Routing: every node answers the po document correctly, and the
	// fleet agrees on a single owner (one local answer, two proxies to
	// the same peer).
	ownerByRoute := map[string]int{}
	for _, p := range fleet {
		resp, err := http.Post(p.url()+"/v1/validate/po", "application/xml",
			strings.NewReader(schemas.PurchaseOrderDoc))
		if err != nil {
			t.Fatalf("POST to %s: %v", p.addr, err)
		}
		var v serveResponse
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !v.Valid {
			t.Fatalf("node %s: status %d valid=%v", p.addr, resp.StatusCode, v.Valid)
		}
		route := resp.Header.Get("X-Xsd-Cluster-Route")
		switch {
		case route == "local":
			ownerByRoute[p.addr]++
		case strings.HasPrefix(route, "proxy:"):
			ownerByRoute[strings.TrimPrefix(route, "proxy:")]++
		default:
			t.Fatalf("node %s: unexpected route %q", p.addr, route)
		}
	}
	if len(ownerByRoute) != 1 {
		t.Fatalf("fleet disagrees on po's owner: %v", ownerByRoute)
	}
	var ownerAddr string
	for a := range ownerByRoute {
		ownerAddr = a
	}

	// Unknown schemas are 404 from every node, no proxy hop.
	for _, p := range fleet {
		resp, err := http.Post(p.url()+"/v1/validate/nosuch", "application/xml",
			strings.NewReader(schemas.PurchaseOrderDoc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("node %s: unknown schema answered %d", p.addr, resp.StatusCode)
		}
	}

	// --- Convergence: rewrite the schema, SIGHUP ONE node; gossip must
	// pull the other two to the same generation and fingerprint.
	poV2 := strings.Replace(schemas.PurchaseOrderXSD,
		`<xsd:element name="items" type="Items"/>`,
		`<xsd:element name="items" type="Items"/>
      <xsd:element name="priority" type="xsd:string" minOccurs="0"/>`, 1)
	if err := os.WriteFile(poPath, []byte(poV2), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fleet[0].cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitForFleet(t, "post-SIGHUP convergence", fleet, func() bool {
		var fp string
		for i, p := range fleet {
			st := getStatus(p)
			if st.Generation != 2 || st.Divergence != 0 {
				return false
			}
			if i == 0 {
				fp = st.Fingerprint
			} else if st.Fingerprint != fp {
				return false
			}
		}
		return true
	})
	// The new version serves from every entry point.
	for _, p := range fleet {
		var l serveSchemas
		getJSON(t, p.url()+"/v1/schemas", &l)
		if len(l.Schemas) != 1 || l.Schemas[0].Version != 2 {
			t.Fatalf("node %s serves %+v after convergence, want po v2", p.addr, l.Schemas)
		}
	}

	// --- Lossless drain: load the two NON-owner nodes while the owner
	// leaves the fleet. The drain notice flags the owner via gossip, the
	// survivors stop proxying to it, and not one request fails.
	var owner *fleetProc
	var targets []string
	for _, p := range fleet {
		if p.addr == ownerAddr {
			owner = p
		} else {
			targets = append(targets, p.url())
		}
	}
	loadDone := make(chan drainTally, 1)
	go func() { loadDone <- driveDrainLoad(targets, 5*time.Second) }()

	// Let load flow through the full fleet first, then drain the owner.
	time.Sleep(1 * time.Second)
	if err := owner.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	ownerExit := make(chan error, 1)
	go func() { ownerExit <- owner.cmd.Wait() }()

	var tally drainTally
	select {
	case tally = <-loadDone:
	case <-time.After(30 * time.Second):
		t.Fatal("drain load never finished")
	}
	select {
	case err := <-ownerExit:
		if err != nil {
			t.Fatalf("owner exited non-zero after SIGTERM: %v\nstderr:\n%s", err, owner.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("owner never exited after SIGTERM")
	}

	if tally.requests == 0 {
		t.Fatal("drain load issued no requests")
	}
	if n := tally.by[loadFailed]; n != 0 {
		t.Fatalf("draining the owner failed %d of %d requests (first: %v)", n, tally.requests, tally.firstErr)
	}
	if n := tally.by[loadInvalid]; n != 0 {
		t.Fatalf("%d verdicts went invalid during the drain (first: %v)", n, tally.firstErr)
	}
	t.Logf("drain run: %d requests, %d ok, %d shed, 0 failed",
		tally.requests, tally.by[loadOK], tally.by[loadShed])

	// The survivors keep answering po — now without the old owner.
	for _, url := range targets {
		v := postForVerdict(t, url+"/v1/validate/po", schemas.PurchaseOrderDoc)
		if !v.Valid || v.SchemaVersion != 2 {
			t.Fatalf("survivor %s verdict = %+v after drain", url, v)
		}
	}
}

// drainTally counts a drain load run's requests by outcome.
type drainTally struct {
	requests int
	by       [loadFailed + 1]int // indexed by loadOutcome
	firstErr error               // the first invalid or failed answer
}

// driveDrainLoad holds a closed loop on targets for d: four clients each
// send a request every 50 ms (about 80 req/s in all) unless the previous
// answer came later, drawing the op from validate=6, batch=1, decode=1
// and the target at random.
func driveDrainLoad(targets []string, d time.Duration) drainTally {
	const clients, period = 4, 50 * time.Millisecond
	doc := []byte(schemas.PurchaseOrderDoc)
	validate := xmlRequest("/v1/validate/po", doc)
	mix := []loadRequest{validate, validate, validate, validate, validate, validate,
		batchRequest("po", doc, 16), xmlRequest("/v1/decode/po", doc)}
	client := &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(d)
	var (
		mu    sync.Mutex
		tally drainTally
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			for time.Now().Before(deadline) {
				due := time.Now().Add(period)
				out, err := mix[rng.Intn(len(mix))].send(client, targets[rng.Intn(len(targets))])
				mu.Lock()
				tally.requests++
				tally.by[out]++
				if err != nil && tally.firstErr == nil {
					tally.firstErr = err
				}
				mu.Unlock()
				time.Sleep(time.Until(due))
			}
		}()
	}
	wg.Wait()
	return tally
}

// waitForFleet polls cond until it holds or a deadline passes. cond may
// call t.Fatal for structural failures; returning false means "not yet".
func waitForFleet(t *testing.T, what string, fleet []*fleetProc, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, p := range fleet {
		t.Logf("node %s stderr:\n%s", p.addr, p.stderr.String())
	}
	t.Fatalf("timed out waiting for %s", what)
}
