package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// cluster is a set of twca-serve replicas running in this process on
// real loopback listeners. With more than one replica they share one
// consistent-hash ring.
type cluster struct {
	svcs    []*service.Server
	servers []*http.Server
	urls    []string
	serving sync.WaitGroup
}

// fleetPortBase is the first loopback port a benchmark fleet tries.
// Replica names are their URLs and the ring hashes the names, so fixed
// ports give every run the same artifact ownership; with random ports
// one replica may own most of the working set in one run and none of it
// in the next.
const fleetPortBase = 27180

// startCluster starts n replicas with the service's default
// configuration; a fleet (fixedPorts) listens on fixed ports when they
// are free.
func startCluster(n int, fixedPorts bool) (*cluster, error) {
	c := &cluster{}
	lns, err := listen(n, fixedPorts)
	if err != nil {
		return nil, err
	}
	for _, ln := range lns {
		c.urls = append(c.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		var cfg service.Config
		if n > 1 {
			cfg.Self, cfg.Peers = c.urls[i], append([]string(nil), c.urls...)
		}
		svc, err := service.New(cfg)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		hs := &http.Server{Handler: svc.Handler()}
		c.svcs = append(c.svcs, svc)
		c.servers = append(c.servers, hs)
		c.serving.Add(1)
		go func(ln net.Listener) {
			defer c.serving.Done()
			hs.Serve(ln) // returns http.ErrServerClosed on shutdown
		}(ln)
	}
	if n > 1 {
		if err := c.waitRing(n); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func listen(n int, fixedPorts bool) ([]net.Listener, error) {
	tries := 0
	if fixedPorts {
		tries = 20
	}
	for t := 0; ; t++ {
		lns := make([]net.Listener, 0, n)
		for i := 0; i < n; i++ {
			addr := "127.0.0.1:0"
			if t < tries {
				addr = fmt.Sprintf("127.0.0.1:%d", fleetPortBase+n*t+i)
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		if len(lns) == n {
			return lns, nil
		}
		for _, ln := range lns {
			ln.Close()
		}
		if t >= tries {
			return nil, fmt.Errorf("listen on loopback: no free port")
		}
	}
}

// waitRing returns once every replica reports the full membership.
func (c *cluster) waitRing(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range c.urls {
		for {
			var h struct {
				FleetPeers int `json:"fleet_peers"`
			}
			err := getJSON(u+"/healthz", &h)
			if err == nil && h.FleetPeers == n {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %s did not join the ring: %v", u, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// close shuts every replica down and waits for its serve loop to end.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(bgCtx, 10*time.Second)
	defer cancel()
	for _, hs := range c.servers {
		hs.Shutdown(ctx) // a timeout leaves Close below to cancel stragglers
	}
	for _, s := range c.svcs {
		s.Close()
	}
	c.serving.Wait()
	httpClient.CloseIdleConnections()
}

// httpClient is shared by every phase; closed-loop clients never hold
// more than one request each, so two idle connections per replica
// suffice.
var httpClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
		Proxy:               nil,
	},
	Timeout: 60 * time.Second,
}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters is a /metrics scrape summed over replicas, keyed by series
// (name plus labels as printed).
type counters map[string]float64

func (c *cluster) scrape() (counters, error) {
	out := counters{}
	for _, u := range c.urls {
		resp, err := httpClient.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		err = parseMetrics(resp.Body, out)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func parseMetrics(r io.Reader, out counters) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return errors.New("bad metrics line: " + line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("bad metrics line %q: %v", line, err)
		}
		out[line[:i]] += v
	}
	return sc.Err()
}

// delta is after − before for one series.
func delta(before, after counters, series string) float64 { return after[series] - before[series] }
