package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/experiments"
	"repro/graph"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/scc"
)

// served is one internal/server behind a loopback HTTP listener.
type served struct {
	srv  *server.Server
	hs   *http.Server
	done chan error
	url  string
}

func serve(srv *server.Server) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, done: make(chan error, 1), url: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for its goroutine, and closes
// the server.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: http serve:", err)
	}
	s.srv.Close()
}

// env is one set-up: both graphs, the warm detection engine, a
// read-only server, and a durable server for the mixed load. The two
// servers serve the same graph; keeping them apart leaves the read-only
// one's answers fixed, so reads can be checked against set-up oracles
// while the mixed load changes the other.
type env struct {
	detectG *graph.Graph
	serveG  *graph.Graph
	eng     *scc.Engine
	read    *served
	store   *durable.Store
	mixed   *served
	walDir  string

	setupS float64
	genS   float64
}

// newEnv is the timed set-up: generate both graphs, start the engine
// and run its first detect and condense, start the read-only server
// (which builds its first epoch), then open the durable store and start
// the mixed-load server, whose start-up recovers the store and builds
// its first epoch.
func newEnv(cfg config, tr *tracer, walDir string) (*env, error) {
	e := &env{walDir: walDir}
	if err := e.start(cfg, tr); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) start(cfg config, tr *tracer) error {
	ctx := context.Background()
	d, err := experiments.Find(cfg.w.dataset)
	if err != nil {
		return err
	}
	t0 := time.Now()
	e.detectG = d.Build(cfg.detectScale)
	e.serveG = d.Build(cfg.serveScale)
	tGen := time.Now()
	tr.record(0, 0, "gen.build", t0, tGen)
	e.genS = tGen.Sub(t0).Seconds()

	if e.eng, err = scc.New(scc.Options{Seed: cfg.seed}); err != nil {
		return err
	}
	res, err := e.eng.Detect(ctx, e.detectG)
	if err != nil {
		return err
	}
	if _, err := scc.Condense(e.detectG, res.Comp); err != nil {
		return err
	}
	tEng := time.Now()
	tr.record(0, 0, "setup.engine", tGen, tEng)

	quiet := func(string, ...any) {}
	rs, err := server.New(server.Config{Options: scc.Options{Seed: cfg.seed}, Logf: quiet}, e.serveG)
	if err != nil {
		return err
	}
	if e.read, err = serve(rs); err != nil {
		rs.Close()
		return err
	}
	tRead := time.Now()
	tr.record(0, 0, "setup.read_server", tEng, tRead)

	if e.store, err = durable.Open(durable.Options{Dir: e.walDir, Fsync: durable.FsyncInterval}); err != nil {
		return err
	}
	ms, err := server.New(server.Config{Options: scc.Options{Seed: cfg.seed}, Durable: e.store, Logf: quiet}, e.serveG)
	if err != nil {
		return err
	}
	if err := ms.WaitReady(ctx); err != nil {
		ms.Close()
		return err
	}
	if e.mixed, err = serve(ms); err != nil {
		ms.Close()
		return err
	}
	tEnd := time.Now()
	tr.record(0, 0, "setup.mixed_server", tRead, tEnd)
	e.setupS = tEnd.Sub(t0).Seconds()
	return nil
}

// close stops everything newEnv started and removes the WAL directory.
func (e *env) close() {
	if e.read != nil {
		e.read.stop()
		e.read = nil
	}
	if e.mixed != nil {
		e.mixed.stop()
		e.mixed = nil
	}
	if e.store != nil {
		e.store.Close()
		e.store = nil
	}
	if e.eng != nil {
		e.eng.Close()
		e.eng = nil
	}
	os.RemoveAll(e.walDir)
}
