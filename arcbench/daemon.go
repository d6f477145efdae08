package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"arcsim/internal/client"
	"arcsim/internal/mesh"
	"arcsim/internal/server"
	"arcsim/internal/store"
)

// daemon is one in-process arcsimd: a server.Server over an on-disk
// store, served over HTTP on a loopback listener, optionally peered into
// a mesh — wired the way cmd/arcsimd wires it.
type daemon struct {
	dir  string
	st   *store.Store
	mesh *mesh.Mesh
	srv  *server.Server
	http *http.Server
	url  string

	stopProbes context.CancelFunc
	wg         sync.WaitGroup // Serve and the mesh probe loop
}

// listen reserves a loopback address, so peers can name each other
// before either daemon starts.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startDaemon serves cfg on ln with the store in dir, created if it does
// not exist. With peers set
// the store federates through a mesh whose rendezvous Self is ln's
// address.
func startDaemon(dir string, ln net.Listener, cfg server.Config, peers []string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, _, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, st: st, url: "http://" + ln.Addr().String(), stopProbes: func() {}}
	cfg.Store = st
	if len(peers) > 0 {
		d.mesh = mesh.New(mesh.Config{Self: ln.Addr().String(), Peers: peers, Store: st, Timeout: 2 * time.Second})
		if err := st.SetEvictLimit(256 << 20); err != nil { // arcsimd's -mesh-l2-bytes default
			st.Close()
			return nil, err
		}
		cfg.Mesh = d.mesh
		var ctx context.Context
		ctx, d.stopProbes = context.WithCancel(context.Background())
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.mesh.ProbeLoop(ctx, 15*time.Second)
		}()
	}
	d.srv = server.New(cfg)
	d.srv.Start()
	d.http = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := d.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("daemon %s: %v", d.url, err)
		}
	}()
	return d, nil
}

// stop drains the daemon, closes its listener and store and waits for
// its goroutines. The store's directory stays: a later daemon may
// reopen it.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		logf("daemon %s: %v", d.url, err)
	}
	// Shutdown counts a connection a client dialled but never sent a
	// request on as active for its first five seconds, and a peer's or
	// the scheduler's transport leaves such connections behind. With the
	// jobs drained, give requests a second to finish, then close.
	sctx, scancel := context.WithTimeout(ctx, time.Second)
	defer scancel()
	if err := d.http.Shutdown(sctx); err != nil {
		d.http.Close()
	}
	d.stopProbes()
	d.wg.Wait()
	d.st.Close()
}

// metricValue reads one unlabelled sample from the daemon's /metrics.
func (d *daemon) metricValue(name string) (float64, error) {
	raw, err := client.New(d.url, client.Options{}).Metrics(context.Background())
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s in /metrics", d.url, name)
}

// jobs lists every job the daemon ran.
func (d *daemon) jobs() ([]server.JobView, error) {
	return client.New(d.url, client.Options{}).List(context.Background())
}
