package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"profileme/internal/cluster"
	"profileme/internal/ingest"
	"profileme/internal/server"
)

// instances is the tier size: 2 pmsimd instances behind 1 pmrouter.
const instances = 2

// tier is the collector tier run in-process from the daemons' own
// constructors, each component on its own loopback listener so every
// request crosses real HTTP.
type tier struct {
	dir       string
	svcs      [instances]*ingest.Service
	routerURL string
	servers   []*http.Server
	serveErr  chan error
	stopProbe context.CancelFunc
	probeDone chan struct{}
}

// startTier starts 2 WAL-backed instances and a router with the
// daemons' default flags, WALs and checkpoints under a fresh directory
// in tmpRoot. tr, when non-nil, wraps every handler and the router's
// outbound client for the traced run.
func startTier(tmpRoot string, tr *tracer) (*tier, error) {
	dir, err := os.MkdirTemp(tmpRoot, "tier-")
	if err != nil {
		return nil, err
	}
	t := &tier{dir: dir, serveErr: make(chan error, instances+1)}
	logw := ingest.NewSyncWriter(os.Stderr)
	var ins []cluster.Instance
	for i := 0; i < instances; i++ {
		id := fmt.Sprintf("c%d", i)
		idir := filepath.Join(dir, id)
		if err := os.MkdirAll(idir, 0o755); err != nil {
			t.close()
			return nil, err
		}
		svc, _, err := ingest.Recover(ingest.Config{
			QueueDepth:          64,
			Policy:              ingest.RejectNew,
			Interval:            tierInterval,
			Window:              tierWindow,
			Width:               tierWidth,
			CheckpointPath:      filepath.Join(idir, "agg.db"),
			CheckpointEvery:     8,
			BreakerThreshold:    3,
			BreakerCooldown:     5 * time.Second,
			WALDir:              filepath.Join(idir, "wal"),
			FsyncWindow:         0,
			SketchTopK:          512,
			SketchWindowBuckets: 60,
			SketchWindowBucket:  time.Second,
			Log:                 logw,
		})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("instance %s: %w", id, err)
		}
		svc.Start()
		t.svcs[i] = svc
		scfg := server.Config{
			Instance:      id,
			MaxBodyBytes:  8 << 20,
			QueryDeadline: 2 * time.Second,
			MaxQueries:    32,
			Log:           logw,
		}
		var h http.Handler
		if tr != nil {
			scfg.Capture = tr.captureHook(&tr.serverCaps)
			h = tr.wrap("server", server.New(scfg, svc).Handler())
		} else {
			h = server.New(scfg, svc).Handler()
		}
		url, err := t.serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		ins = append(ins, cluster.Instance{ID: id, BaseURL: url})
	}
	rcfg := cluster.RouterConfig{
		Instances:        ins,
		VNodes:           cluster.DefaultVNodes,
		QueryDeadline:    2 * time.Second,
		HedgeDelay:       250 * time.Millisecond,
		FailureThreshold: 3,
		MaxBodyBytes:     8 << 20,
		Log:              logw,
	}
	if tr != nil {
		rcfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: legTransport{t: tr, base: http.DefaultTransport}}
		rcfg.Capture = tr.captureHook(&tr.routerCaps)
	}
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		t.close()
		return nil, err
	}
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.wrap("router", h)
	}
	if t.routerURL, err = t.serve(h); err != nil {
		t.close()
		return nil, err
	}
	// pmrouter's default -probe-every 2s readiness loop.
	ctx, cancel := context.WithCancel(context.Background())
	t.stopProbe, t.probeDone = cancel, make(chan struct{})
	go func() {
		defer close(t.probeDone)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		rt.Probe(ctx)
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				rt.Probe(ctx)
			}
		}
	}()
	return t, nil
}

// serve starts an HTTP server for h on a loopback port and returns its URL.
func (t *tier) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	t.servers = append(t.servers, srv)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			t.serveErr <- err
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// captured returns each instance's aggregate Samples+Lost, read from the
// lock-free published view.
func (t *tier) captured() [instances]uint64 {
	var c [instances]uint64
	for i, s := range t.svcs {
		v := s.Aggregate().CountersSnapshot()
		c[i] = v.Samples + v.Lost
	}
	return c
}

// close stops the probe loop and the servers, flushes every instance's
// queue, closes the WALs and removes the tier's directory.
func (t *tier) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if t.stopProbe != nil {
		t.stopProbe()
		<-t.probeDone
	}
	var errs []error
	for _, srv := range t.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for _, s := range t.svcs {
		if s == nil {
			continue
		}
		errs = append(errs, s.Flush(ctx), s.CloseWAL())
	}
	select {
	case err := <-t.serveErr:
		errs = append(errs, err)
	default:
	}
	errs = append(errs, os.RemoveAll(t.dir))
	return errors.Join(errs...)
}
