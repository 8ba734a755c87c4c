package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"elinda"
	"elinda/internal/fleet"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/router"
)

// heavyEverything is the HVS heaviness threshold of every system in the
// benchmark: below the runtime of any query, so whether an answer is
// cached never depends on how fast it was computed.
const heavyEverything = time.Nanosecond

func proxyOptions() proxy.Options { return proxy.Options{HeavyThreshold: heavyEverything} }

// openSystem builds the serving system from N-Triples bytes and warms it:
// the set-up a server performs before it answers its first request.
func openSystem(nt []byte) (*elinda.System, error) {
	sys, err := elinda.OpenStream(bytes.NewReader(nt), rdf.SyntaxNTriples, proxyOptions())
	if err != nil {
		return nil, err
	}
	sys.Warm()
	return sys, nil
}

// loopback serves h on a fresh 127.0.0.1 port until closed.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln)
	}()
	return lb, nil
}

// close stops the server and waits until its serve loop has returned.
func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
}

// newClient is the benchmark's single client: one keep-alive connection
// per host, so every phase is one client on one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// httpQuery sends a SPARQL query and returns the response body once it
// has been read in full.
func httpQuery(c *http.Client, base, query string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/sparql-results+json")
	return roundTrip(c, req)
}

// httpUpdate posts a SPARQL UPDATE request and returns the acknowledgement.
func httpUpdate(c *http.Client, base, update string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(update))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/sparql-update")
	return roundTrip(c, req)
}

func roundTrip(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// fleetRig is the read fleet of the fleet phase, all in this process
// on loopback: a coordinator publishing its store, two replicas and a
// router in front of them. Nothing runs on a timer: replicas sync and the
// router probes only when the phase calls them.
type fleetRig struct {
	coord    *elinda.System
	co       *fleet.Coordinator
	replicas []*fleet.Replica
	repURL   []string
	router   *router.Router
	servers  []*loopback
	url      string // the router
	coordURL string
	dir      string
	client   *http.Client
}

// openFleet builds the fleet over N-Triples bytes and brings it to
// serving: coordinator load, publication, hydration of both replicas and
// one router probe.
func openFleet(nt []byte, dir string) (*fleetRig, error) {
	rig := &fleetRig{dir: dir, client: newClient()}
	ok := false
	defer func() {
		if !ok {
			rig.close()
		}
	}()
	coord, err := elinda.OpenStream(bytes.NewReader(nt), rdf.SyntaxNTriples, proxyOptions())
	if err != nil {
		return nil, err
	}
	rig.coord = coord
	rig.co = fleet.NewCoordinator(coord.Store)
	mux := http.NewServeMux()
	rig.co.Register(mux)
	lb, err := serveLoopback(mux)
	if err != nil {
		return nil, err
	}
	rig.servers = append(rig.servers, lb)
	rig.coordURL = lb.url

	var members []router.ReplicaConfig
	for i := 0; i < 2; i++ {
		r := fleet.NewReplica(fleet.ReplicaOptions{
			CoordinatorURL: lb.url,
			Dir:            filepath.Join(dir, fmt.Sprintf("replica%d", i+1)),
			Proxy:          proxyOptions(),
		})
		rlb, err := serveLoopback(r.Handler())
		if err != nil {
			return nil, err
		}
		rig.servers = append(rig.servers, rlb)
		rig.replicas = append(rig.replicas, r)
		rig.repURL = append(rig.repURL, rlb.url)
		members = append(members, router.ReplicaConfig{Name: fmt.Sprintf("r%d", i+1), BaseURL: rlb.url})
	}
	// A hedge fires only when a replica stalls for seconds: with one
	// client the router's hedging never depends on a latency estimate.
	rig.router = router.New(router.Options{Replicas: members, HedgeDelay: 5 * time.Second})
	rlb, err := serveLoopback(rig.router.Handler())
	if err != nil {
		return nil, err
	}
	rig.servers = append(rig.servers, rlb)
	rig.url = rlb.url
	if err := rig.sync(context.Background()); err != nil {
		return nil, err
	}
	rig.router.ProbeNow(context.Background())
	ok = true
	return rig, nil
}

// sync brings both replicas to the coordinator's newest generation.
func (rig *fleetRig) sync(ctx context.Context) error {
	for _, r := range rig.replicas {
		if _, err := r.SyncOnce(ctx); err != nil {
			return err
		}
	}
	want := rig.coord.Store.Generation()
	for i, r := range rig.replicas {
		if r.Generation() != want {
			return fmt.Errorf("replica %d at generation %d, coordinator at %d", i+1, r.Generation(), want)
		}
	}
	return nil
}

func (rig *fleetRig) close() {
	for _, lb := range rig.servers {
		lb.close()
	}
	rig.servers = nil
	if t, ok := rig.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	if rig.dir != "" {
		os.RemoveAll(rig.dir)
	}
}
